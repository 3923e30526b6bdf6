// General-purpose iterative MapReduce engine (paper §4). Implements the
// enhanced Map API map(SK, SV, DK, DV), the Project-based dependency-aware
// co-partitioning, the structure/state separation with local structure
// caching, loop-alive jobs (one startup per job, not per iteration), and
// prime-Reduce/prime-Map co-location (reduce partition r writes state
// partition r directly, no backward transfer).
//
// Run() performs full re-computation every iteration: this is the "iterMR"
// configuration of the paper's experiments. The incremental engine (§5)
// derives from this class.
#ifndef I2MR_CORE_ITER_ENGINE_H_
#define I2MR_CORE_ITER_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/projector.h"
#include "core/state_store.h"
#include "mr/cluster.h"
#include "mr/shuffle.h"

namespace i2mr {

/// Enhanced Map API: map(SK, SV, DK, DV) -> [<K2, V2>] (paper §4.2).
class IterMapper {
 public:
  virtual ~IterMapper() = default;
  virtual void Setup(MapContext* /*ctx*/) {}
  virtual void Map(const std::string& sk, const std::string& sv,
                   const std::string& dk, const std::string& dv,
                   MapContext* ctx) = 0;
  virtual void Flush(MapContext* /*ctx*/) {}
};

/// Prime Reduce: combines the grouped intermediate values of one DK into the
/// updated state value. `prev_dv` is the previous iteration's state value
/// (nullptr if absent) — needed e.g. by GIM-V's assign(v_i, v'_i). Values
/// are views into the shuffle's flat-KV arenas (or the merged MRBGraph
/// chunk), valid only for the duration of the call.
class IterReducer {
 public:
  virtual ~IterReducer() = default;
  virtual std::string Reduce(const std::string& dk,
                             const std::vector<std::string_view>& values,
                             const std::string* prev_dv) = 0;
};

using IterMapperFactory = std::function<std::unique_ptr<IterMapper>()>;
using IterReducerFactory = std::function<std::unique_ptr<IterReducer>()>;

/// difference(DV_curr, DV_prev) -> scalar change magnitude (paper Table 2).
/// `prev` is the empty string when there is no previous value.
using DifferenceFn =
    std::function<double(const std::string& curr, const std::string& prev)>;

struct IterJobSpec {
  std::string name = "iter";
  int num_partitions = 4;
  std::shared_ptr<Projector> projector;
  IterMapperFactory mapper;
  IterReducerFactory reducer;
  DifferenceFn difference;
  /// Initial state value for a DK that has no entry yet (init(DK) -> DV).
  std::function<std::string(const std::string& dk)> init_state;
  int max_iterations = 50;
  /// Converged when the sum of |difference| over reduced keys <= epsilon.
  double convergence_epsilon = 1e-9;
  /// Also run the reducer (with an empty value list) for state keys that
  /// received no intermediate values this iteration. Needed by PageRank
  /// (vertices without in-links still re-score to 1-d).
  bool reduce_untouched_keys = false;

  /// Full iterations map over the resident parsed structure (the iterMR
  /// optimization: jobs stay alive, so loop-invariant structure data is
  /// read and parsed once instead of per iteration). Off: every full
  /// iteration re-reads and re-parses the partition's structure file.
  bool cache_parsed_structure = true;

  /// How map output reaches the prime Reduce (see shuffle.h). kInMemory
  /// hands sorted flat-KV runs to a per-iteration ShuffleExchange instead
  /// of round-tripping part-<r>.dat spills through disk; simulated network
  /// charges and StageMetrics are identical. Overridden to kDisk by
  /// I2MR_FORCE_DISK_SHUFFLE=1.
  ShuffleMode shuffle_mode = ShuffleMode::kInMemory;

  /// In-memory exchange budget per iteration; runs above it spill to disk.
  size_t shuffle_memory_bytes = kDefaultShuffleMemoryBytes;

  /// Sharded deployments (serving/CrossShardExchange): when set, this
  /// engine owns only the keys for which owns_key(key) is true; the rest
  /// of the key space lives on sibling engines (other shards). Map
  /// emissions to non-owned keys never enter the local shuffle — they
  /// would otherwise reduce locally as phantom keys that shadow the owning
  /// shard's result. Full iterations drop them (the complete set is
  /// re-derivable from a full re-map); the incremental engine captures
  /// them as boundary edges for the exchange to route to the owner.
  /// Requires a partition-by-key dependency (not all-to-one).
  std::function<bool(std::string_view key)> owns_key;
};

/// One partition's structure records grouped by DK = project(SK), each
/// group sorted by (SK, SV). Walking the map in order visits the records in
/// the (project(SK), SK, SV) order of the partition's structure file.
using StructureGroups = std::map<std::string, std::vector<KV>, std::less<>>;

/// Per-iteration statistics (Fig. 9 / Fig. 11 quantities).
struct IterationStats {
  int iteration = 0;
  double wall_ms = 0;
  double map_ms = 0, shuffle_ms = 0, sort_ms = 0, reduce_ms = 0;
  int64_t map_instances = 0;    // Map function invocations
  int64_t shuffle_bytes = 0;
  int64_t reduced_keys = 0;     // reduce instances executed
  int64_t propagated_pairs = 0; // state kv-pairs emitted to the next iteration
  double total_diff = 0;
  double merge_ms = 0;          // MRBG merge time (incremental engine only)
};

class IterativeEngine {
 public:
  IterativeEngine(LocalCluster* cluster, IterJobSpec spec);
  virtual ~IterativeEngine() = default;

  /// Dependency-aware partitioning pre-step (§4.3): distribute structure
  /// kv-pairs by hash(project(SK)) and state kv-pairs by hash(DK) (all-to-one
  /// apps: structure by hash(SK), state replicated), write per-partition
  /// structure files sorted in project(SK) order, initialize state stores.
  Status Prepare(const std::vector<KV>& structure,
                 const std::vector<KV>& initial_state);

  /// Reload previously prepared partitions from disk: the state stores and
  /// the resident structure (refreshes never re-read structure files).
  /// (Virtual: the incremental engine also reloads its cross-shard
  /// remote-edge inbox.)
  virtual Status LoadExisting();

  /// Run full iterations to convergence (iterMR). One job startup charge.
  StatusOr<std::vector<IterationStats>> Run();

  /// Current state across partitions, sorted by DK.
  StatusOr<std::vector<KV>> StateSnapshot() const;

  /// Visit the current state in (DK, DV) order without copying it: a merge
  /// of the per-partition DK-sorted stores (partition 0 alone for
  /// all-to-one apps, whose partitions are replicas).
  void VisitState(
      const std::function<void(const std::string& dk, const std::string& dv)>&
          fn) const;

  /// The resident structure of partition p (see StructureGroups).
  const StructureGroups& structure(int p) const { return structure_[p]; }

  std::string PartitionDir(int p) const;
  std::string StructurePath(int p) const;
  std::string StatePath(int p) const;
  const IterJobSpec& spec() const { return spec_; }
  StateStore* state(int p) { return states_[p].get(); }

 protected:
  /// One full-recomputation iteration over all structure records.
  StatusOr<IterationStats> RunFullIteration(int iter);

  /// Map-side join of one partition's structure with its state store,
  /// invoking `fn(sk, sv, dk, dv)` per structure record, in structure-file
  /// order: the resident groups, or (cache_parsed_structure off) the local
  /// structure file re-read (local FS, no DFS read, no shuffle of structure
  /// data).
  Status ForEachStructureRecord(
      int p, const std::function<Status(const std::string& sk,
                                        const std::string& sv,
                                        const std::string& dk,
                                        const std::string& dv)>& fn) const;

  /// After an all-to-one reduce, copy updated state to every partition.
  Status ReplicateStateAllToOne();

  uint32_t PartitionOf(const std::string& key) const;
  bool all_to_one() const {
    return spec_.projector->dep_type() == DepType::kAllToOne;
  }
  Status SaveStates();

  /// Parse a structure file into groups (one pass; the file is sorted).
  Status ReadStructure(const std::string& path, StructureGroups* groups) const;
  /// Rewrite partition p's structure file from its resident groups.
  Status WriteStructure(int p) const;

  /// Resolve the state value for dk in partition p (store value or
  /// init_state fallback).
  StatusOr<std::string> StateValue(int p, const std::string& dk) const;

  /// Cross-shard exchange hooks (spec_.owns_key deployments). Reduce input
  /// for a DK is the union of its local intermediate values and the values
  /// remote shards routed in; the incremental engine overrides these with
  /// its remote-edge inbox. Views appended by AppendRemoteValues must stay
  /// valid for the rest of the refresh (the inbox is immutable while one
  /// runs).
  virtual void AppendRemoteValues(int /*r*/, std::string_view /*dk*/,
                                  std::vector<std::string_view>* /*values*/)
      const {}
  /// DKs in partition r that hold remote contributions — their reduce must
  /// run even when no local map emission targets them this iteration.
  /// Returned sorted.
  virtual std::vector<std::string> RemoteOnlyKeys(int /*r*/) const {
    return {};
  }

  LocalCluster* cluster_;
  IterJobSpec spec_;
  std::vector<std::unique_ptr<StateStore>> states_;
  /// The one in-memory copy of each partition's structure, resident across
  /// iterations and refreshes: built by Prepare, read once by LoadExisting,
  /// patched in place by the incremental engine's structure deltas.
  std::vector<StructureGroups> structure_;
  bool prepared_ = false;
};

}  // namespace i2mr

#endif  // I2MR_CORE_ITER_ENGINE_H_
