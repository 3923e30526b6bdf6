// SparkSim (§8.7 comparison): an in-memory partitioned-dataset engine in
// the style of Spark RDDs. Datasets are immutable, hash-partitioned by key,
// and eagerly materialized in memory. A memory manager enforces a cluster
// memory budget: when live datasets exceed it, victim datasets are spilled
// to disk and later reads stream them back from files — reproducing the
// paper's observation that Spark wins while everything is memory-resident
// and degrades once input + intermediate data exhaust the heap.
#ifndef I2MR_BASELINES_SPARK_SIM_H_
#define I2MR_BASELINES_SPARK_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace i2mr {
namespace sparksim {

struct Options {
  int num_partitions = 4;
  /// Total memory budget for live datasets, in bytes.
  size_t memory_budget_bytes = 64u << 20;
  /// Where spilled partitions go.
  std::string spill_dir;
  /// Optional worker pool for per-partition parallelism.
  ThreadPool* pool = nullptr;
};

struct Stats {
  uint64_t spill_events = 0;
  uint64_t spilled_bytes = 0;
  uint64_t disk_read_bytes = 0;
};

class SparkSim;

/// Immutable partitioned dataset (RDD stand-in). Obtain via SparkSim ops.
class Dataset {
 public:
  size_t bytes() const { return bytes_; }
  bool spilled() const { return spilled_; }
  int id() const { return id_; }

 private:
  friend class SparkSim;
  std::vector<std::vector<KV>> parts_;
  std::vector<std::string> spill_paths_;
  bool spilled_ = false;
  size_t bytes_ = 0;
  int id_ = 0;
};

using DatasetPtr = std::shared_ptr<Dataset>;

class SparkSim {
 public:
  explicit SparkSim(Options options);

  /// Create a dataset from records (hash-partitioned by key).
  StatusOr<DatasetPtr> Parallelize(const std::vector<KV>& records);

  /// Per-record transform emitting zero or more records.
  StatusOr<DatasetPtr> FlatMap(
      const DatasetPtr& in,
      const std::function<void(const KV&, std::vector<KV>*)>& fn);

  /// Join two datasets on key (keys unique within each side) and emit
  /// records. Partitions are aligned, so no shuffle is needed.
  StatusOr<DatasetPtr> JoinFlatMap(
      const DatasetPtr& left, const DatasetPtr& right,
      const std::function<void(const std::string& key, const std::string& lv,
                               const std::string& rv, std::vector<KV>*)>& fn);

  /// Aggregate values per key with a binary combine function.
  StatusOr<DatasetPtr> ReduceByKey(
      const DatasetPtr& in,
      const std::function<std::string(const std::string&, const std::string&)>&
          fn);

  StatusOr<std::vector<KV>> Collect(const DatasetPtr& in);

  const Stats& stats() const { return stats_; }
  size_t memory_budget() const { return options_.memory_budget_bytes; }

 private:
  StatusOr<DatasetPtr> MakeDataset(std::vector<std::vector<KV>> parts);
  StatusOr<std::vector<KV>> LoadPart(const DatasetPtr& ds, int p);
  Status EnforceBudget();
  Status Spill(Dataset* ds);
  void ForEachPartition(const std::function<void(int)>& fn);

  Options options_;
  Stats stats_;
  std::vector<std::weak_ptr<Dataset>> registry_;
  std::mutex mu_;
  int next_id_ = 0;
};

}  // namespace sparksim
}  // namespace i2mr

#endif  // I2MR_BASELINES_SPARK_SIM_H_
