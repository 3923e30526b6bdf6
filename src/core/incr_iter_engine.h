// Incremental iterative processing engine (paper §5 + §6). A sequence of
// jobs A1, A2, ... refreshes an iterative mining result as the structure
// data evolves:
//
//  * RunInitial: full iterative computation (via IterativeEngine), then a
//    preservation pass that materializes the converged MRBGraph into the
//    per-partition MRBG-Stores (§5.1: only the last iteration's state needs
//    saving).
//  * RunIncremental: starts from the previous converged state; iteration 1
//    consumes the delta structure input, iterations j>=2 consume the delta
//    state data; only affected Map/Reduce instances re-execute, merging
//    against the preserved MRBGraph (multi-batch MRBG files, §5.2).
//
// Includes change propagation control (§5.3) with accumulated-change
// filtering, automatic MRBGraph turn-off when P∆ exceeds a threshold
// (§5.2), per-iteration checkpointing to the Dfs and prime-task failure
// recovery (§6.1).
#ifndef I2MR_CORE_INCR_ITER_ENGINE_H_
#define I2MR_CORE_INCR_ITER_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/iter_engine.h"
#include "mr/job.h"
#include "mrbg/mrbg_store.h"

namespace i2mr {

/// Engine-default MRBG store options: the appended-tail cache is on, so
/// iteration j+1's merge reads the chunks iteration j just appended from
/// memory instead of the file tail, and background compaction keeps merge
/// cost flat in epoch-history length (superseded chunk versions are
/// reclaimed concurrently with refreshes). Plain MRBGStore users default
/// to tail_cache_bytes = 0 and explicit compaction.
inline MRBGStoreOptions DefaultIncrStoreOptions() {
  MRBGStoreOptions o;
  o.tail_cache_bytes = 4u << 20;
  o.background_compaction = true;
  return o;
}

struct IncrIterOptions {
  /// Change propagation control (§5.3). >= 0: a reduced state kv-pair is
  /// emitted to the next iteration only when its accumulated change since
  /// the last emission exceeds this threshold (0 = propagate any non-zero
  /// change, SSSP-style exact filtering). < 0: CPC disabled — every reduced
  /// key propagates ("i2MR w/o CPC").
  double filter_threshold = 0.0;

  /// Maintain the fine-grain MRBGraph (turn off manually for apps like
  /// Kmeans where any change triggers global re-computation, §5.2).
  bool maintain_mrbg = true;

  /// Auto turn-off threshold for P∆ = |∆D| / |D| (§5.2; paper default 50%).
  double mrbg_auto_off_ratio = 0.5;

  MRBGStoreOptions store_options = DefaultIncrStoreOptions();

  /// Checkpoint state + MRBGraph to the Dfs every iteration (§6.1).
  bool checkpoint_each_iteration = false;

  /// Charge the CostModel's job startup at the head of every RunIncremental
  /// (the paper's model: each refresh Ai is a separately submitted job; the
  /// batch experiments keep this on). The pipeline turns it off: its engine
  /// is resident and the refresh job is submitted once at bootstrap, then
  /// stays loop-alive across epochs — §4.2's "one startup per job, not per
  /// iteration", applied at the refresh-job level.
  bool charge_job_startup_per_refresh = true;

  /// Failure injection for fault-tolerance experiments: return true to
  /// crash the given prime task once at the start of the given iteration.
  std::function<bool(int iteration, TaskId::Kind kind, int partition)> fail_hook;
};

/// One recovered task failure (Fig. 13 data points).
struct RecoveryEvent {
  int iteration = 0;
  TaskId::Kind kind = TaskId::Kind::kMap;
  int partition = 0;
  double recovery_ms = 0;
};

struct IncrIterRunStats {
  std::vector<IterationStats> iterations;
  double wall_ms = 0;
  double preserve_ms = 0;  // MRBGraph preservation pass time
  bool mrbg_turned_off = false;
  double max_p_delta = 0;
  std::vector<RecoveryEvent> recoveries;
  /// Aggregated MRBG-Store statistics across partitions and iterations.
  uint64_t store_io_reads = 0;
  uint64_t store_bytes_read = 0;
  double total_ms() const {
    double t = 0;
    for (const auto& it : iterations) t += it.wall_ms;
    return t;
  }
};

class IncrementalIterativeEngine : public IterativeEngine {
 public:
  IncrementalIterativeEngine(LocalCluster* cluster, IterJobSpec spec,
                             IncrIterOptions options);

  /// Job A1: full computation + state/MRBGraph preservation.
  StatusOr<IncrIterRunStats> RunInitial(const std::vector<KV>& structure,
                                        const std::vector<KV>& initial_state);

  /// Job Ai (i >= 2): incremental refresh with a delta structure input.
  StatusOr<IncrIterRunStats> RunIncremental(
      const std::vector<DeltaKV>& delta_structure);

  std::string MrbgDir(int r) const;
  const IncrIterOptions& options() const { return options_; }

  /// Also reloads the cross-shard remote-edge inbox (remote.dat).
  Status LoadExisting() override;

  // -- Cross-shard exchange (spec.owns_key engines) --------------------------
  //
  // A sharded computation's map emissions to keys another shard owns are
  // captured here as boundary edges — (K2, MK, V2) with the MRBGraph's
  // replace/delete-by-(K2, MK) semantics — instead of reducing locally as
  // phantom keys. The serving layer's CrossShardExchange routes them to the
  // owning engine, which folds them into a durable per-partition inbox
  // (remote.dat, snapshotted and restored with the engine state) whose
  // values join every subsequent reduce of the affected DKs.

  /// Fold routed-in edges from sibling shards into the remote inbox.
  /// Upserts/deletes by (K2, MK); DKs whose folded value set actually
  /// changed are forced into the next RunIncremental's first-iteration
  /// reduce. Returns how many edges changed the inbox (0 = no-op round).
  StatusOr<size_t> ApplyRemoteEdges(const std::vector<DeltaEdge>& edges);

  /// Drain the boundary emissions captured since the last call: the latest
  /// edge per (K2, MK) — re-executed map instances replace their earlier
  /// capture — including deletions from removed structure records.
  std::vector<DeltaEdge> TakeBoundaryExports();

  /// Remote-inbox DKs already folded but not yet re-reduced (a refresh
  /// that failed after the fold); the next RunIncremental absorbs them.
  bool HasPendingRemoteKeys() const { return !pending_remote_dks_.empty(); }

  /// Off-line MRBGraph reconstruction (paper §3.4: "The MRBGraph file is
  /// reconstructed off-line when the worker is idle"): rewrite every
  /// partition's store with only live chunks, in key order, as a single
  /// sorted batch. Run between refresh jobs; reclaims the space of
  /// obsolete chunk versions and collapses the multi-batch layout.
  Status CompactMRBGraph();

  /// Total MRBGraph bytes across partitions (on-disk footprint).
  StatusOr<uint64_t> MrbgFileBytes() const;

  /// Hard-link a self-consistent image of partition p's MRBG store into
  /// `dst_dir` (the pipeline's epoch-commit path). Uses the open resident
  /// store when there is one — safe concurrently with its background
  /// compactor — and falls back to linking the closed on-disk file set.
  /// No-op (and no dst_dir created) when the partition has no store files.
  Status SnapshotMrbgPartition(int p, const std::string& dst_dir,
                               std::vector<std::string>* files);

 private:
  /// Per-refresh, per-partition in-memory context (the structure itself
  /// is resident: structure_).
  struct PartitionCtx {
    /// CPC: last state value emitted to the next iteration, per DK.
    std::unordered_map<std::string, std::string> last_emitted;
    /// Delta state produced by this partition's prime Reduce (input to the
    /// next iteration's prime Map), as one flat arena run instead of a
    /// vector of string pairs.
    FlatKVRun delta_state;
    /// DKs introduced by inserted structure records that have no state yet:
    /// their reduce instance is forced in iteration 1 so the new state
    /// kv-pair is computed even when it receives no intermediate values.
    std::vector<std::string> forced_dks;
  };

  /// Apply each partition's structure deltas, in log order, to the
  /// resident groups; rewrite the structure file of each partition they
  /// changed.
  Status ApplyStructureDelta(const std::vector<std::vector<DeltaKV>>& per_part);

  /// Rebuild the MRBGraph from the converged state with one extra map pass
  /// (then the store holds exactly one sorted batch).
  Status PreserveMRBGraph(double* elapsed_ms);

  /// Idempotent: stores stay resident across refreshes so the background
  /// compactor genuinely overlaps epoch commits.
  Status OpenStores();
  Status CloseStores(IncrIterRunStats* stats);
  /// Per-refresh stat harvest for resident stores: fold the read counters
  /// into `stats`, persist the index/manifest, reset the counters — but
  /// keep the stores (and their compactors) open.
  Status CollectStoreStats(IncrIterRunStats* stats);

  Status Checkpoint(int iteration);
  Status RestorePartition(int iteration, int partition);

  /// One incremental iteration. `struct_delta` is non-null only for
  /// iteration 1 (delta structure input); later iterations consume
  /// ctxs[p].delta_state.
  StatusOr<IterationStats> RunIncrIteration(
      int iter, std::vector<PartitionCtx>* ctxs,
      const std::vector<std::vector<DeltaKV>>* struct_delta,
      IncrIterRunStats* run_stats);

  /// Check the failure hook, at most once per (iter, kind, partition).
  bool ShouldFail(int iter, TaskId::Kind kind, int p);

  // -- Cross-shard internals -------------------------------------------------
  std::string RemotePath(int p) const;
  Status LoadRemoteInbox();
  Status SaveRemoteInbox(int p) const;
  /// Merge one map task's captured boundary emissions (latest per (k2, mk)).
  void MergeBoundaryExports(std::vector<DeltaEdge>&& edges);
  void AppendRemoteValues(int r, std::string_view dk,
                          std::vector<std::string_view>* values) const override;
  std::vector<std::string> RemoteOnlyKeys(int r) const override;

  IncrIterOptions options_;
  std::vector<std::unique_ptr<MRBGStore>> stores_;
  bool mrbg_consistent_ = false;
  std::set<std::string> failed_once_;
  std::mutex fail_mu_;

  /// Per state partition: DK -> (remote MK -> V2). Immutable during a
  /// refresh (ApplyRemoteEdges runs between refreshes), so the views
  /// AppendRemoteValues hands to reducers stay valid. std::less<> for
  /// string_view probes.
  std::vector<std::map<std::string, std::map<uint64_t, std::string>,
                       std::less<>>>
      remote_;
  /// Inbox DKs changed since the last refresh (forced into iteration 1).
  std::set<std::string> pending_remote_dks_;
  /// Captured boundary emissions awaiting TakeBoundaryExports, keyed
  /// (K2, MK) so a re-executed instance replaces its earlier capture.
  std::map<std::pair<std::string, uint64_t>, DeltaEdge> pending_exports_;
  std::mutex exports_mu_;  // map tasks merge concurrently
};

}  // namespace i2mr

#endif  // I2MR_CORE_INCR_ITER_ENGINE_H_
