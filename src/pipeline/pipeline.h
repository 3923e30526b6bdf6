// Pipeline: binds a name + an app's iterative map/reduce spec + an
// IncrementalIterativeEngine into a continuously refreshable computation.
//
// Updates arrive through a durable DeltaLog. Every epoch runs one
// protocol: refresh rounds (the first drains the log up to a sequence
// watermark and runs the incremental refresh of paper §5; later rounds
// fold in other shards' boundary contributions), then stage, flip, clean
// up. RunEpoch() is the one-round case, Bootstrap() the same commit after
// the full computation (job A1). The refreshed state commits *atomically
// with* the consumed watermark:
//
//   pipeline/<name>/
//     log/seg-*.dat      segmented durable delta log (CRC32-framed,
//                        recovery-by-scan, O(segments) purge, optional
//                        archive/)
//     epoch-<E>/         committed snapshot: per-partition structure/state/
//                        MRBG files (hard-linked from the engine's working
//                        dirs — O(1) per file; copied only cross-device) +
//                        serving.dat (ResultStore) + MANIFEST (epoch,
//                        watermark, generation, CRC)
//     CURRENT            names the committed epoch dir
//
// The engine's working files are scratch between stages: refresh rounds
// change the engine in memory (plus MRBG segment appends), and the stage
// writes the partitions that changed, once per epoch, before linking them.
// Nothing else reads them; a failed epoch is rolled back from the committed
// snapshot, not from the working files.
//
// The epoch dirs and CURRENT belong to the pipeline's EpochStore
// (pipeline/epoch_store.h): a commit fills the slot epoch-<E>.tmp, seals it
// as epoch-<E>, then flips CURRENT. The flip is the commit: a crash at any
// earlier point (mid-drain, mid-refresh, even after the epoch dir landed)
// leaves CURRENT on the previous epoch, and Open() verifies that snapshot,
// restores the engine's working directories from it and replays the log
// past its watermark — every logged delta is applied exactly once
// relative to the committed state. A kind=crash rule (io/fault_env.h) on
// "pipeline/drain" or "pipeline/refresh" (first round) or
// "pipeline/commit" (staged, not flipped) abandons the epoch there.
//
// Point lookups are served from the store's immutable in-memory snapshot
// of the committed ResultStore, published at commit time, so reads never
// block on a running refresh.
//
// A follower replica (replication/replica_set.h) is a pipeline opened
// read-only over its own root: OpenReadOnly() runs only the half of Open()
// every pipeline runs — read CURRENT, verify its epoch, publish it,
// collect leftovers — and holds no open log, no restored engine, no health
// entry. Its epochs arrive through the same commit as a primary's:
// InstallEpoch() fills the slot by byte copy of the primary's committed
// dir, verifies and seals it, FinalizeStagedEpoch() flips and publishes.
// Promote() runs the other half of Open() — restore the engine, open the
// log — and turns the follower into a primary in place.
#ifndef I2MR_PIPELINE_PIPELINE_H_
#define I2MR_PIPELINE_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/health.h"
#include "core/incr_iter_engine.h"
#include "core/result_store.h"
#include "mr/cluster.h"
#include "pipeline/delta_log.h"
#include "pipeline/epoch_store.h"

namespace i2mr {

struct PipelineOptions {
  /// The app's iterative job spec. `spec.name` is overridden with the
  /// pipeline name so concurrent pipelines never share engine directories.
  IterJobSpec spec;

  /// Incremental engine options (CPC threshold, MRBG maintenance, ...).
  /// Note: `engine.charge_job_startup_per_refresh` is forced to false by
  /// the pipeline — its refresh job is resident (submitted once at
  /// bootstrap, loop-alive across epochs), so the paper's per-refresh
  /// job-submission charge does not apply. Use the engine directly (as the
  /// batch benches do) to model separately submitted refresh jobs.
  IncrIterOptions engine;

  /// Delta-log layout knobs (segment rotation threshold, archival). The
  /// log's durability field is overridden by `durability` below so the log
  /// and the commit path always promise the same thing.
  DeltaLogOptions log;

  /// kProcessCrash (default): appends/commits reach the OS and survive
  /// process death. kPowerFailure: the delta log, epoch MANIFEST and
  /// CURRENT swap are fsync'd — acknowledged appends and committed epochs
  /// survive kernel panic / power loss.
  DurabilityMode durability = DurabilityMode::kProcessCrash;

  /// Epoch trigger: ready once this many deltas are pending.
  uint64_t min_batch = 1;

  /// Epoch trigger: ready once the oldest pending delta has waited this
  /// long, even below min_batch (< 0 disables the lag trigger).
  double max_lag_ms = -1;

  /// Partition-map generation this pipeline's shard belongs to (0 for an
  /// unsharded pipeline or a generation-0 fleet). Stamped into every epoch
  /// MANIFEST; a follower refuses to install an epoch of another
  /// generation (partitioned by another map).
  uint64_t generation = 0;

  // -- Graceful degradation under write failures ----------------------------

  /// A failed delta-log append (I/O error, e.g. disk full) is retried this
  /// many times with exponential backoff before the pipeline gives up and
  /// enters degraded read-only mode.
  int append_retries = 2;
  /// First retry delay; doubles per attempt.
  double append_retry_backoff_ms = 1.0;
  /// While degraded, one incoming append per this interval is admitted as a
  /// probe; the rest bounce with Unavailable. A successful probe exits
  /// degraded mode (auto-resume once space/device recovers).
  double degraded_probe_interval_ms = 50;
  /// Where to report kHealthy/kDegraded/kFailed as "pipeline.<name>"
  /// (nullptr = HealthRegistry::Default()).
  HealthRegistry* health = nullptr;
};

struct EpochStats {
  uint64_t epoch = 0;
  uint64_t deltas_applied = 0;
  uint64_t watermark = 0;
  size_t iterations = 0;
  double refresh_ms = 0;
  double commit_ms = 0;
  double wall_ms = 0;

  // Where the refresh milliseconds went: per-stage wall time summed over
  // this epoch's incremental iterations (task-summed StageMetrics, so the
  // parts can exceed refresh_ms when tasks run in parallel).
  double refresh_map_ms = 0;
  double refresh_shuffle_ms = 0;
  double refresh_sort_ms = 0;
  double refresh_reduce_ms = 0;
  double refresh_merge_ms = 0;  // MRBG merge share (inside reduce)
};

class Pipeline {
 public:
  /// Open (or create) the pipeline under `cluster`'s root. If a committed
  /// epoch exists, the engine's working directories are restored from its
  /// snapshot (crash recovery) and serving resumes from it immediately.
  static StatusOr<std::unique_ptr<Pipeline>> Open(LocalCluster* cluster,
                                                  const std::string& name,
                                                  PipelineOptions options);

  /// Open the pipeline read-only (a follower): verify and serve the
  /// committed epoch, if any, without restoring the engine or opening the
  /// log. Appends and epochs are refused (FailedPrecondition) until
  /// Promote().
  static StatusOr<std::unique_ptr<Pipeline>> OpenReadOnly(
      LocalCluster* cluster, const std::string& name, PipelineOptions options);

  // -- Read-only pipelines (followers) ----------------------------------------

  /// Install `src_dir` — a primary's sealed epoch dir — as the staged
  /// epoch: byte-copy it into the slot, refuse it unless its MANIFEST is of
  /// this pipeline's partition-map generation, verify it, seal it.
  /// FinalizeStagedEpoch() then commits it here. Returns the bytes copied:
  /// 0 when `epoch` is already committed, or already staged at
  /// `watermark`. A failed install leaves no dir behind.
  StatusOr<uint64_t> InstallEpoch(uint64_t epoch, uint64_t watermark,
                                  const std::string& src_dir);

  /// Re-run the read-only open's recovery (a restarted follower): drop the
  /// staged epoch, verify and publish what CURRENT names, collect.
  Status Reload();

  /// Make a read-only pipeline writable, in place: restore the engine's
  /// working files from the committed epoch (verified again first), open
  /// the log past its watermark, register "pipeline.<name>" health. On
  /// failure the pipeline stays read-only and keeps serving its epoch.
  Status Promote();

  /// Job A1: full computation over the initial structure data, then the
  /// epoch-0 commit — BootstrapPrepare with no exchange round, committed
  /// like a RunEpoch. Appends that raced ahead of Bootstrap stay in the log
  /// and are consumed by the first epoch.
  Status Bootstrap(const std::vector<KV>& structure,
                   const std::vector<KV>& initial_state);

  bool bootstrapped() const { return bootstrapped_.load(); }

  /// Durably append one update / a batch to the delta log. Transient I/O
  /// failures are retried (options.append_retries); persistent failure
  /// flips the pipeline into degraded read-only mode — further appends
  /// bounce with Unavailable while reads, pinned snapshots and replica
  /// shipping keep serving the committed state. One append per probe
  /// interval is let through; the first one that succeeds exits degraded
  /// mode automatically.
  StatusOr<uint64_t> Append(const DeltaKV& delta);
  StatusOr<uint64_t> AppendBatch(const std::vector<DeltaKV>& deltas);

  /// True while the pipeline is in degraded read-only mode (appends bounce
  /// until a probe append succeeds; reads keep serving).
  bool degraded() const {
    return availability_ &&
           availability_->refuses() != Availability::Refuses::kNothing;
  }
  /// Why the pipeline degraded ("" when healthy) — also the message of
  /// every bounced append and the "pipeline.<name>" health reason.
  std::string degraded_reason() const {
    return availability_ ? availability_->reason() : "";
  }

  /// Deltas logged but not yet consumed by a committed epoch.
  uint64_t pending() const;

  /// Milliseconds the oldest pending delta has been waiting (0 when none).
  double pending_lag_ms() const;

  /// min-batch / max-lag trigger evaluation.
  bool EpochReady() const;

  /// One solo epoch: the first refresh round (drain + refresh) and the
  /// commit, with no exchange in between. Returns a zero-delta EpochStats
  /// when nothing is pending. Serialized internally: concurrent calls queue.
  StatusOr<EpochStats> RunEpoch();

  // -- Coordinated (cross-shard) epochs --------------------------------------
  //
  // The serving layer's ShardRouter drives every shard's pipeline through
  // the same epoch under a barrier, with the steps RunEpoch and Bootstrap
  // run back to back: refresh rounds exchange boundary edges until the
  // joint fixpoint, then every shard's epoch dir is staged, a coordinator
  // barrier record makes the decision durable, and only then are the
  // CURRENT files flipped — so readers see either all shards at epoch N or
  // all at N-1, never a mix. Calls must not interleave with RunEpoch (the
  // router owns both).

  /// One refresh round without a commit. `first` starts a new epoch: rolls
  /// back a dirty working state, then drains the pending log records
  /// (deltas arriving later wait for the next epoch). `remote_in`
  /// is folded into the engine's remote inbox; the refresh runs when there
  /// is any work (drained deltas, changed remote edges, or inbox DKs a
  /// previous failed round left pending). A round writes no working file
  /// (IncrementalIterativeEngine::Refresh): the fold and the refresh stay
  /// in memory until StageEpoch. Returns captured boundary exports; the
  /// router's final absorb round discards them.
  struct RoundResult {
    std::vector<DeltaEdge> exports;
    uint64_t deltas_drained = 0;
    size_t iterations = 0;
    /// Sum of per-iteration state change of this round's refresh (0 when
    /// no refresh ran) — the router's joint-fixpoint criterion.
    double total_diff = 0;
    bool refreshed = false;
    /// Wall time of this round's refresh (0 when none ran).
    double refresh_ms = 0;
    /// Per-stage wall time summed over this round's iterations (as in
    /// EpochStats' refresh_*_ms).
    double map_ms = 0;
    double shuffle_ms = 0;
    double sort_ms = 0;
    double reduce_ms = 0;
    double merge_ms = 0;
  };
  StatusOr<RoundResult> RefreshRound(bool first,
                                     const std::vector<DeltaEdge>& remote_in);

  /// Coordinated bootstrap: the full computation without the epoch-0
  /// commit. Exchange rounds (RefreshRound(first=false, ...)) then fold in
  /// the other shards' contributions; StageEpoch(0)/Finalize commits.
  Status BootstrapPrepare(const std::vector<KV>& structure,
                          const std::vector<KV>& initial_state);

  /// Phase 1: persist the engine's working files as of the final round
  /// (IncrementalIterativeEngine::Persist — the epoch's only write of
  /// them), then write + rename epoch-<E>/ with the in-flight watermark,
  /// but do NOT flip CURRENT — a crash before the coordinator's barrier
  /// record leaves this an orphan dir that recovery garbage-collects.
  Status StageEpoch(uint64_t epoch);

  /// Phase 2: flip CURRENT to the staged epoch (StageEpoch's, or a
  /// follower's InstallEpoch's) and publish the serving snapshot. After
  /// this returns the epoch is durable on this shard.
  Status FinalizeStagedEpoch();

  /// Post-barrier housekeeping: GC superseded epoch dirs + purge the log
  /// through the committed watermark. Failures are logged, not fatal.
  Status CleanupCommitted();

  /// Abandon an in-flight coordinated epoch (a sibling shard failed): the
  /// working state is marked dirty and rolled back to the committed
  /// snapshot before the next refresh.
  void AbortCoordinated();

  /// Point lookup from the committed serving snapshot. Never blocks on a
  /// running refresh; NotFound for unknown keys.
  StatusOr<std::string> Lookup(const std::string& key) const;

  /// The whole committed result, sorted by key.
  std::vector<KV> ServingSnapshot() const;

  /// Pin the currently committed epoch for non-blocking versioned reads.
  /// The returned pin's (epoch, store) pair is taken atomically, so a
  /// reader never sees a half-committed epoch — it gets the previous
  /// committed view or the new one, whole. Invalid (default) pin before
  /// Bootstrap.
  EpochPin PinServing() const;

  /// Replication hooks: observe epoch lifecycle transitions. `on_staged`
  /// fires once an epoch dir has fully landed on disk (before CURRENT
  /// moves — a shipper may pre-stage it at followers); `on_committed`
  /// fires after the CURRENT flip made the epoch durable (only then may a
  /// follower serve it). Callbacks run inside the commit path while the
  /// listener registration is held — keep them cheap (enqueue + wake) and
  /// never call back into the pipeline. Setting a new listener (or {})
  /// waits out an in-flight callback.
  struct EpochListener {
    std::function<void(uint64_t epoch, const std::string& dir)> on_staged;
    std::function<void(uint64_t epoch, const std::string& dir,
                       uint64_t watermark)>
        on_committed;
  };
  void SetEpochListener(EpochListener listener);

  uint64_t committed_epoch() const { return epochs_.epoch(); }
  /// Partition-map generation this pipeline stamps into its manifests.
  uint64_t generation() const { return options_.generation; }
  uint64_t committed_watermark() const { return epochs_.watermark(); }
  const std::string& name() const { return name_; }
  /// `<cluster-root>/pipeline/<name>`: epoch dirs, CURRENT, log/.
  const std::string& dir() const { return epochs_.dir(); }
  /// Effective options (after Open's name override).
  const PipelineOptions& options() const { return options_; }
  /// nullptr while read-only.
  DeltaLog* log() { return log_.get(); }
  IncrementalIterativeEngine* engine() { return engine_.get(); }

 private:
  Pipeline(LocalCluster* cluster, std::string name, PipelineOptions options);

  /// Open()'s two halves: RecoverCommitted and Collect run for every
  /// pipeline, OpenWritable only for a writable one.
  Status OpenImpl(bool writable);
  /// Read CURRENT, verify its epoch (restoring the engine from it when
  /// `restore`), publish it. Caller holds epoch_mu_ (or is the open).
  Status RecoverCommitted(bool restore);
  /// Open the log past the committed watermark and register health.
  Status OpenWritable();
  /// FailedPrecondition unless the pipeline is `writable` (or read-only).
  Status CheckWritable(bool writable) const;
  /// Link the committed snapshot back over the engine's working dirs
  /// (after verifying it); returns its serving store.
  StatusOr<ResultStore> RestoreCommitted(uint64_t epoch, uint64_t watermark);
  /// Bodies of BootstrapPrepare / RefreshRound (caller holds epoch_mu_).
  Status BootstrapPrepareLocked(const std::vector<KV>& structure,
                                const std::vector<KV>& initial_state);
  StatusOr<RoundResult> RefreshRoundLocked(
      bool first, const std::vector<DeltaEdge>& remote_in);
  /// The solo commit of the in-flight epoch as `epoch`: stage, crash point
  /// "commit", flip, clean up. Fills commit_ms. Caller holds epoch_mu_.
  Status CommitLocked(uint64_t epoch, double* commit_ms);
  /// Commit phases (callers hold epoch_mu_): stage the epoch dir without
  /// touching CURRENT (`pending_since_ns` re-arms the max-lag clock for
  /// deltas that arrived behind the drain point; 0 = no drain point, use
  /// now); flip CURRENT + publish the staged serving store; GC + purge
  /// after the (local or cross-shard) commit completed.
  Status StageEpochLocked(uint64_t epoch, uint64_t watermark,
                          int64_t pending_since_ns);
  Status FinalizeStagedLocked();
  Status CleanupCommittedLocked();

  /// True when a kind=crash rule fires at "pipeline/<stage>": the epoch is
  /// abandoned there and the working state marked dirty.
  bool SimulateCrash(uint64_t epoch, const char* stage);

  /// While degraded: true for the one append per probe interval that may
  /// try the log.
  bool ElectProbe();

  /// Start the max-lag clock if it isn't already running (post-append).
  void ArmLagTrigger();

  LocalCluster* cluster_;
  const std::string name_;
  PipelineOptions options_;

  std::unique_ptr<DeltaLog> log_;  // null while read-only
  std::unique_ptr<IncrementalIterativeEngine> engine_;

  std::mutex epoch_mu_;  // serializes Bootstrap / RunEpoch / rounds / recovery
  std::atomic<bool> bootstrapped_{false};
  /// Epoch dirs, CURRENT, the published (epoch, watermark, store) triple
  /// and its pins.
  EpochStore epochs_;

  /// In-flight epoch state (guarded by epoch_mu_): refresh rounds
  /// accumulate into the working state against this watermark until the
  /// epoch is staged + finalized (or aborted).
  bool inflight_ = false;
  uint64_t inflight_watermark_ = 0;
  int64_t inflight_drain_ns_ = 0;  // 0 = nothing drained yet

  /// A staged (or installed) but unfinalized epoch (guarded by epoch_mu_).
  struct Staged {
    uint64_t epoch = 0;
    uint64_t watermark = 0;
    int64_t pending_since_ns = 0;
    std::unique_ptr<ResultStore> store;
  };
  std::optional<Staged> staged_;
  /// Set when an epoch died after possibly mutating engine state; the next
  /// first round restores the committed snapshot before proceeding.
  std::atomic<bool> dirty_{false};

  /// "pipeline.<name>": refuses writes in degraded read-only mode
  /// (persistent append failure; kFailed once the log closed), and
  /// next_probe_ns_ elects one append per probe interval via CAS to try
  /// the log anyway. Registered when the pipeline becomes writable: a
  /// follower's construction would reset its primary's entry to healthy.
  std::optional<Availability> availability_;
  std::atomic<int64_t> next_probe_ns_{0};
  /// Arrival time of the oldest unconsumed delta (0 = none). Updates are
  /// serialized by trigger_mu_ so a commit deciding "nothing pending"
  /// cannot clobber a concurrent append that just armed the clock; reads
  /// stay lock-free.
  std::mutex trigger_mu_;
  std::atomic<int64_t> oldest_pending_ns_{0};

  /// Epoch lifecycle listener (leaf lock; held across the callback so
  /// SetEpochListener doubles as a drain of in-flight notifications).
  std::mutex listener_mu_;
  EpochListener listener_;
};

}  // namespace i2mr

#endif  // I2MR_PIPELINE_PIPELINE_H_
