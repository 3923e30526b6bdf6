// ShardRouter: hash-partitions one continuously-refreshed computation
// across N shards. Each shard is a vertical slice — its own LocalCluster
// (under <root>/<shard-dir>/) and its own Pipeline (own DeltaLog, epoch
// dirs, engine state) — and one coordinator drives every slice through
// the same epochs.
//
// Routing is by key through the router's versioned PartitionMap (see
// serving/partition_map.h) — one stable key-hash partition function,
// durable as the `<name>.PARTMAP` record, shared with the exchange's
// owner map, bootstrap splitting and the engines' owns_key filter, so a
// key's deltas, its committed state and its lookups always meet on the
// same shard and no layer can ever compute the split from a different
// shard count. An elastic reshard (serving/reshard.h) replaces the whole
// topology — map, shard slices, exchange — with a new generation in one
// atomic cutover; retired donor slices stay alive until the router dies
// so pre-cutover pins keep serving the old map.
//
// Consistency: every engine's map emissions to non-owned keys are captured
// at the boundary, routed to the owning shard by a CrossShardExchange, and
// folded into that shard's refresh; RefreshCoordinated() iterates rounds
// under a barrier to the joint fixpoint, so the sharded result equals the
// unsharded computation. All shards then commit the same epoch N with a
// two-phase protocol — stage every epoch dir, write the coordinator
// BARRIER record, flip every CURRENT, clean up — and recovery rolls an
// incomplete barrier back to N-1 everywhere, so readers never observe a
// mixed epoch vector. Bootstrap and delta epochs share one routine (only
// round 0 differs), and the barrier's flip loop is also its roll-forward.
// Apps whose reduce state is global (all-to-one, e.g. k-means' single
// centroid record) run on a one-shard map.
//
// Per-shard failover (driven by replication/replica_set.h): a lost
// primary refuses appends routed to its shard, coordinated epochs and
// reshards until PromotePrimary() swaps a caught-up follower's root in as
// that shard's pipeline — the router owns every shard's primary.
//
// Refusals: the router ("serving.<name>") and each shard
// ("serving.<name>.shard<s>") hold one Availability (common/health.h),
// and Refusal() is the one check every entry point asks. The router
// refuses everything while a decided barrier awaits its roll-forward
// (kDegraded) or an incomplete commit awaits the reopen recovery
// (kFailed); a shard refuses writes while its primary is lost (kFailed).
//
// Epoch-consistent cross-shard reads and per-tenant admission live one
// layer up, in ShardGroup / AdmissionController.
#ifndef I2MR_SERVING_SHARD_ROUTER_H_
#define I2MR_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/health.h"
#include "mr/cluster.h"
#include "common/metrics.h"
#include "pipeline/pipeline.h"
#include "serving/admission.h"
#include "serving/exchange.h"
#include "serving/partition_map.h"

namespace i2mr {

class ReshardCoordinator;

struct ShardRouterOptions {
  int num_shards = 4;
  int workers_per_shard = 2;

  /// Must stay true: coordinated refresh (see the header comment) is the
  /// only multi-shard mode, and Open rejects false.
  bool cross_shard_exchange = true;

  /// Per-shard cluster cost model.
  CostModel cost;

  /// true: wipe the shard roots (fresh deployment). false: re-attach and
  /// recover every shard's committed epoch + delta log from disk — and
  /// trust the durable PARTMAP record over num_shards above, because the
  /// record names the partitioning the on-disk shards were actually built
  /// with (it differs after an elastic reshard).
  bool reset = true;

  /// Template for every shard's pipeline (spec, engine knobs, triggers,
  /// durability). The spec's partition count applies per shard.
  PipelineOptions pipeline;

  /// Background coordinator poll cadence for Start().
  double poll_interval_ms = 10;

  /// Owning tenant + admission control: when both are set, the coordinator
  /// consults admission->AdmitEpoch(tenant) once per coordinated epoch, so
  /// this computation's delta backlog competes for refresh slots under the
  /// tenant's epoch quota.
  std::string tenant;
  AdmissionController* admission = nullptr;

  /// Counter registry (Default() when null).
  MetricsRegistry* metrics = nullptr;

  /// Health registry (Default() when null) for the router's and its
  /// shards' availability (see the header comment), forwarded into every
  /// shard pipeline (which reports "pipeline.<name>" for its degraded
  /// read-only mode).
  HealthRegistry* health = nullptr;

  /// Internal (ReshardCoordinator): open this fleet under an explicit
  /// partition map instead of {generation 0, num_shards}. Ignored when
  /// its num_shards is 0.
  PartitionMap partition_map{0, 0};

  /// Internal (ReshardCoordinator): a staging fleet must not write the
  /// live PARTMAP record — publishing the new map is the cutover — and
  /// reports its availability as "reshard.<name>.staging", never over the
  /// live router's "serving.<name>".
  bool persist_partition_map = true;
};

class ShardRouter {
 public:
  /// Open (or with options.reset=false, recover) the sharded computation
  /// `name` under `root`.
  static StatusOr<std::unique_ptr<ShardRouter>> Open(const std::string& root,
                                                     const std::string& name,
                                                     ShardRouterOptions options);

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Stable shard assignment for a key under the current partition map.
  int ShardOf(std::string_view key) const;

  /// The current partition map (by value: a reshard publishes a whole new
  /// map, it never mutates one in place).
  PartitionMap partition_map() const;
  uint64_t generation() const { return partition_map().generation; }

  /// An atomically-grabbed view of the current topology: the map and the
  /// per-shard pipelines that belong to it. Readers that touch more than
  /// one shard (snapshot pinning, the replication layer) hold a view so a
  /// concurrent reshard cutover can never hand them a torn mix of
  /// generations — retired slices stay alive, so a pre-cutover view keeps
  /// working on the old map.
  struct TopologyView {
    std::shared_ptr<const PartitionMap> map;
    std::vector<Pipeline*> pipelines;
  };
  TopologyView topology() const;

  /// Split the initial structure/state by key, run every shard's full
  /// computation concurrently, exchange boundary contributions to the
  /// joint fixpoint, and commit epoch 0 on every shard under the barrier —
  /// the same epoch routine as RefreshCoordinated, with the full
  /// computation as round 0.
  Status Bootstrap(const std::vector<KV>& structure,
                   const std::vector<KV>& initial_state);
  bool bootstrapped() const;

  /// Durably append one update to its key's shard, unless Refusal
  /// refuses the write: past a durable barrier/reshard decision the
  /// recovery could discard an ack made against the live topology.
  StatusOr<uint64_t> Append(const DeltaKV& delta);
  /// Partition a batch by key and append per shard (one group per shard),
  /// refused whole, before any shard logs it, when one shard refuses it.
  Status AppendBatch(const std::vector<DeltaKV>& deltas);

  /// Point lookup from the key's shard's latest committed epoch.
  StatusOr<std::string> Lookup(const std::string& key) const;

  /// FailedPrecondition with the refusing component's health reason when
  /// the router or shard `shard` (-1: any) refuses `op`; OK otherwise.
  /// Every entry point (and ShardSnapshot::PinCut) asks it before acting.
  Status Refusal(int shard, Availability::Op op) const;

  /// Background epoch scheduling: one coordinator thread driving
  /// RefreshCoordinated whenever a shard's epoch trigger fires. Failed
  /// epochs back off exponentially and count in
  /// "serving.<name>.epoch_failures"; every committed coordinated epoch's
  /// wall time lands in the "serving.<name>.epoch_wall_ns" histogram.
  void Start();
  void Stop();
  /// Run coordinated epochs until no shard has pending deltas; blocks.
  Status DrainAll();

  /// One coordinated epoch across all shards: every shard drains +
  /// refreshes, boundary contributions are exchanged
  /// and re-reduced under a barrier until the joint fixpoint, then every
  /// shard's epoch N commits atomically (two-phase; see RecoverBarrier in
  /// the implementation for the crash story). Returns committed=false
  /// without committing when nothing is pending anywhere. Serialized
  /// against itself and the coordinator thread.
  struct CoordinatedEpochStats {
    bool committed = false;
    uint64_t epoch = 0;
    int rounds = 0;              // exchange rounds beyond the initial refresh
    uint64_t deltas_applied = 0;
    uint64_t edges_exchanged = 0;
    double wall_ms = 0;
    /// Per-stage wall ms summed over every shard's refresh rounds.
    double map_ms = 0;
    double shuffle_ms = 0;
    double sort_ms = 0;
    double reduce_ms = 0;
    double merge_ms = 0;
  };
  StatusOr<CoordinatedEpochStats> RefreshCoordinated();

  /// Deltas logged but not yet consumed, summed over shards.
  uint64_t TotalPending() const;

  /// Committed epoch id per shard (the version vector readers pin).
  std::vector<uint64_t> CommittedEpochs() const;

  int num_shards() const;

  /// Barrier-flip seqlock for uniform reads: even = stable, odd = a
  /// barrier commit, a reshard cutover or a primary promotion is mid-flip.
  /// ShardGroup::PinSnapshot brackets its per-shard pins with this (wait
  /// while odd, retry if it moved), so a pin is always a uniform epoch
  /// vector of one generation even while flips land one CURRENT at a
  /// time.
  uint64_t commit_seq() const {
    return commit_seq_.load(std::memory_order_acquire);
  }
  /// The router refuses everything: a barrier commit or a reshard cutover
  /// was left incomplete past its decision record.
  bool poisoned() const {
    return availability_.refuses() == Availability::Refuses::kEverything;
  }
  /// Nonzero when a *real* I/O failure (not a simulated coordinator
  /// crash) interrupted the barrier after its decision record was
  /// durable: the epoch is decided, the staged slots are intact, and the
  /// next coordinated tick rolls the commit *forward* in-process instead
  /// of requiring a reopen. Zero otherwise.
  uint64_t pending_flip_epoch() const { return pending_flip_epoch_.load(); }

  // -- Per-shard failover ----------------------------------------------------

  /// Mark shard `shard`'s primary lost: waits out an in-flight coordinated
  /// epoch and in-flight appends, after which appends routed to the shard,
  /// coordinated epochs and reshards are refused (FailedPrecondition naming
  /// the shard) until PromotePrimary. Reads of the committed state go on.
  Status MarkPrimaryLost(int shard);
  bool primary_lost(int shard) const;

  /// Replace lost shard `shard`'s primary with a pipeline opened over
  /// `root` (a follower's replicated root, its CURRENT naming `epoch`)
  /// with the shard's own pipeline options. In a fleet of more than one
  /// shard, `epoch` must equal the other shards' committed epoch — any
  /// other follower would break the uniform epoch vector. The swap is
  /// bracketed by the barrier-flip seqlock like a reshard cutover; the
  /// retired pipeline stays alive so pins taken from it keep serving.
  /// Returns the new primary.
  StatusOr<Pipeline*> PromotePrimary(int shard, const std::string& root,
                                     uint64_t epoch);

  const std::string& name() const { return name_; }
  const std::string& tenant() const { return options_.tenant; }
  Pipeline* shard(int i) const;
  MetricsRegistry* metrics() const { return options_.metrics; }
  /// Effective options (metrics defaulted, templates as applied; after a
  /// reshard, num_shards and pipeline.generation track the live map).
  const ShardRouterOptions& options() const { return options_; }

 private:
  friend class ReshardCoordinator;

  struct Shard {
    std::unique_ptr<LocalCluster> cluster;
    std::unique_ptr<Pipeline> pipeline;  // destroyed before its cluster
  };

  ShardRouter(std::string name, std::string root, ShardRouterOptions options);

  /// Open shard `s`'s slice of generation `map` over cluster root
  /// `cluster_root` (wiped first when `reset`): the shard's pipeline
  /// options own exactly the keys the map assigns to `s` (on a map of more
  /// than one shard).
  StatusOr<std::unique_ptr<Shard>> OpenShard(const std::string& cluster_root,
                                             bool reset,
                                             const PartitionMap& map,
                                             int s) const;

  /// RefreshCoordinated body; caller holds coord_mu_ (the reshard
  /// coordinator drains donors while holding the lock for the whole move).
  StatusOr<CoordinatedEpochStats> RefreshCoordinatedLocked();

  /// The one epoch routine (Bootstrap, RefreshCoordinated): round 0 is
  /// prepare(s, pipeline) on every shard plus a boundary pass when
  /// `prepare` is set, else every shard's draining first round; then
  /// exchange rounds to the joint fixpoint and CommitBarrier(epoch). A
  /// failed round marks every shard dirty. Caller holds coord_mu_.
  Status RunEpochLocked(uint64_t epoch,
                        const std::function<Status(int, Pipeline*)>& prepare,
                        CoordinatedEpochStats* stats);

  /// Exchange rounds over `view` until the joint fixpoint; returns the
  /// number run and adds routed edges and stage ms to `stats`.
  StatusOr<int> RunExchangeRounds(const TopologyView& view,
                                  std::vector<std::vector<DeltaEdge>> offers,
                                  CoordinatedEpochStats* stats);

  /// Two-phase barrier commit of `epoch`: stage every shard, write the
  /// BARRIER decision record (a failure before it marks every shard
  /// dirty), then FlipBarrierLocked. `drained[s]`: shard s's deltas.
  Status CommitBarrier(uint64_t epoch, const std::vector<uint64_t>& drained);

  /// Phase 2 of a barrier commit and all of its roll-forward: finalize
  /// every shard not yet at `epoch` with the seqlock odd, retire BARRIER,
  /// bump the counters, clean up. A failure refuses everything (see the
  /// implementation). Caller holds coord_mu_.
  Status FlipBarrierLocked(uint64_t epoch,
                           const std::vector<uint64_t>& drained);

  /// Refuse everything until the reopen recovery. Caller holds coord_mu_.
  void FailUntilReopen(const std::string& reason);

  /// A kind=crash rule on "barrier/<stage>" (io/fault_env.h) fired.
  /// Stages: "staged" (every shard's epoch dir staged, BARRIER not yet
  /// written), "barrier" (BARRIER durable, nothing flipped), "mid_flip"
  /// (exactly one shard's CURRENT flipped), "flipped" (all flipped,
  /// BARRIER not yet removed); the commit is abandoned with the on-disk
  /// state exactly as a crash would leave it.
  bool BarrierCrashed(const std::string& stage) const;

  /// Arm (or with nullptr disarm) the dual-journal sink. Caller holds
  /// append_gate_ exclusive.
  void SetJournal(std::function<void(const DeltaKV& delta)> journal);

  /// Path of the coordinator's durable barrier decision record
  /// (generation-qualified past generation 0, so a staging fleet's
  /// barrier never collides with the live one's).
  static std::string BarrierPathFor(const std::string& root,
                                    const std::string& name,
                                    const PartitionMap& map);
  /// Path of the durable reshard decision record (`<name>.RESHARD`).
  static std::string ReshardMarkerPath(const std::string& root,
                                       const std::string& name);

  /// Roll an incomplete barrier commit back to epoch N-1 on every shard
  /// (reset=false reopen): shards whose CURRENT already names the barrier
  /// epoch are rewound to their previous epoch dir, staged dirs are
  /// removed, and the BARRIER record is cleared. Called before the shard
  /// pipelines open.
  static Status RecoverBarrier(const std::string& root,
                               const std::string& name,
                               const ShardRouterOptions& options,
                               const PartitionMap& map);

  /// Roll an interrupted reshard cutover forward on reopen: a durable
  /// RESHARD marker means the destination fleet was fully committed and
  /// the new map was decided — install it as the PARTMAP and retire the
  /// marker. No marker: the old map stands (a crash anywhere earlier in
  /// the move recovers to exactly the old partitioning).
  static Status RecoverReshard(const std::string& root,
                               const std::string& name, bool sync);

  /// The reshard cutover: replace the whole topology (map, shard slices,
  /// exchange, per-shard counters, options' shard count + generation)
  /// with the staging fleet's, bracketed by the barrier-flip seqlock.
  /// Retired slices are kept alive until the router dies so pre-cutover
  /// pins and views keep serving.
  void AdoptTopology(std::vector<std::unique_ptr<Shard>> shards,
                     std::unique_ptr<CrossShardExchange> exchange,
                     std::shared_ptr<const PartitionMap> map,
                     std::vector<Counter*> epochs_committed,
                     std::vector<Counter*> deltas_applied);

  void MarkAllDirty();

  /// A fresh availability per shard of map_. Caller holds topo_mu_
  /// exclusive (or owns the router alone, in Open).
  void ResetShardAvailability();

  const std::string name_;
  const std::string root_;
  ShardRouterOptions options_;

  /// Guards the live topology — map_, shards_, shard_availability_,
  /// exchange_, the per-shard counter vectors — shared for every
  /// read/route, exclusive only for the pointer swaps of a reshard
  /// cutover, a lost-primary mark and a promotion. Lock order:
  /// append_gate_ (when taken) before topo_mu_ before anything inside a
  /// pipeline.
  mutable std::shared_mutex topo_mu_;
  std::shared_ptr<const PartitionMap> map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// "serving.<name>.shard<s>", one per live shard: refuses writes while
  /// the shard's primary is lost (MarkPrimaryLost until PromotePrimary).
  std::vector<std::unique_ptr<Availability>> shard_availability_;
  /// Donor slices of previous generations (retired at cutover) and lost
  /// primaries (retired at promotion), kept alive so pins taken from them
  /// stay valid.
  std::vector<std::unique_ptr<Shard>> retired_;

  /// Append gate: appends hold it shared; the reshard coordinator takes
  /// it exclusive for the brief watermark fence (enable dual-journaling
  /// against a drained fleet) and the final cutover, and failover for
  /// marking a shard's primary lost and promoting its replacement. Reads
  /// never touch it.
  mutable std::shared_mutex append_gate_;
  /// Dual-journal sink (set only mid-reshard, under the exclusive gate):
  /// every successfully routed append is also offered to the destination
  /// fleet. Called with the append gate held shared, synchronously before
  /// the append acks — so appends the caller serializes mirror in that
  /// order. Appends racing on the SAME key carry no ordering promise: the
  /// donor log and the staging log may order such a pair differently, so
  /// callers whose deltas don't commute per key must serialize their own
  /// same-key appends.
  std::function<void(const DeltaKV& delta)> journal_;

  Counter* deltas_routed_ = nullptr;
  Counter* lookups_routed_ = nullptr;
  /// Wall time of every committed coordinated epoch (registry-owned).
  Histogram* epoch_wall_hist_ = nullptr;
  /// Coordinated epochs the background coordinator saw fail.
  Counter* epoch_failures_ = nullptr;

  /// Serializes RefreshCoordinated / DrainAll / the coordinator thread /
  /// failover transitions (and, for the length of a move, the reshard
  /// coordinator) — and with them every router and shard availability
  /// transition. Lock order: coord_mu_ before append_gate_.
  std::mutex coord_mu_;
  std::unique_ptr<CrossShardExchange> exchange_;
  std::thread coordinator_;
  std::atomic<bool> coordinating_{false};
  /// See commit_seq().
  std::atomic<uint64_t> commit_seq_{0};
  /// "serving.<name>" (see the header comment).
  Availability availability_;
  /// See pending_flip_epoch(): the decided epoch the next tick rolls
  /// forward. Epoch 0 (bootstrap) is never resumable — its rollback
  /// already lands on "nothing committed".
  std::atomic<uint64_t> pending_flip_epoch_{0};
  /// Per-shard commit counters, published per barrier commit. Guarded by
  /// topo_mu_.
  std::vector<Counter*> shard_epochs_committed_;
  std::vector<Counter*> shard_deltas_applied_;
};

}  // namespace i2mr

#endif  // I2MR_SERVING_SHARD_ROUTER_H_
