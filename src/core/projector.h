// Project API (paper §4.2): specifies the interdependent state key DK for a
// structure key SK, plus the dependency type. i2MapReduce uses Project for
// dependency-aware co-partitioning:
//   structure partition = hash(project(SK)) mod n
//   state partition     = hash(DK) mod n
// so interdependent structure/state kv-pairs land in the same partition.
#ifndef I2MR_CORE_PROJECTOR_H_
#define I2MR_CORE_PROJECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace i2mr {

/// Dependency type between structure and state kv-pairs (paper Fig. 5;
/// one-to-many / many-to-many convert to these by re-keying).
enum class DepType {
  kOneToOne,   // e.g. PageRank: vertex i ↔ rank R_i
  kManyToOne,  // e.g. GIM-V: matrix blocks (·,j) ↔ vector block v_j
  kAllToOne,   // e.g. Kmeans: every point ↔ the single centroid set
};

class Projector {
 public:
  virtual ~Projector() = default;

  /// The single interdependent state key of structure key `sk`.
  virtual std::string Project(const std::string& sk) const = 0;

  virtual DepType dep_type() const { return DepType::kOneToOne; }
};

/// project(SK) = SK (one-to-one, PageRank/SSSP).
class IdentityProjector : public Projector {
 public:
  std::string Project(const std::string& sk) const override { return sk; }
  DepType dep_type() const override { return DepType::kOneToOne; }
};

/// project(SK) = constant key (all-to-one, Kmeans).
class ConstProjector : public Projector {
 public:
  explicit ConstProjector(std::string key) : key_(std::move(key)) {}
  std::string Project(const std::string&) const override { return key_; }
  DepType dep_type() const override { return DepType::kAllToOne; }

 private:
  std::string key_;
};

/// Arbitrary projection function (many-to-one, GIM-V).
class FnProjector : public Projector {
 public:
  using Fn = std::function<std::string(const std::string&)>;
  FnProjector(Fn fn, DepType type) : fn_(std::move(fn)), type_(type) {}
  std::string Project(const std::string& sk) const override { return fn_(sk); }
  DepType dep_type() const override { return type_; }

 private:
  Fn fn_;
  DepType type_;
};

}  // namespace i2mr

#endif  // I2MR_CORE_PROJECTOR_H_
