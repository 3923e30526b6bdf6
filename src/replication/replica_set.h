// ReplicaSet: read-replica serving + failover over a ShardRouter.
//
// For every shard of a sharded computation, the set runs N followers, each
// a read-only pipeline (roots under `<replicas_root>/<shard-dir>/
// replica-<i>`, opened by ShardRouter::OpenShard with the shard's own
// pipeline options) fed by that shard's ReplicaShipper. Reads load-balance
// round-robin across the shard's primary and its caught-up followers;
// writes and epochs go through the router (followers are read-only). A
// follower out of service (killed, or promoted) or lagging more than
// max_replica_lag_epochs behind the primary's committed epoch is skipped
// by routing until shipping catches it up.
//
// Snapshot reads reuse the serving layer: PinSnapshot() pins the
// primaries' uniform cut through ShardGroup's own loop, then takes each
// shard's pin from a backend at exactly that cut's epoch (a follower, or
// else the live primary), so a snapshot never mixes epochs even while a
// follower lags within max_replica_lag_epochs.
//
// Failover: KillPrimary(s) marks the shard's primary lost in the router —
// appends to the shard, coordinated epochs and reshards are refused — and
// stops its shipper; reads continue from followers. Promote(s) then picks
// the freshest caught-up follower and hands its slice to
// ShardRouter::PromotePrimary, which promotes the open pipeline in place
// (Pipeline::Promote) and swaps it in as the shard's primary. Promote()
// is the check: it verifies the epoch the follower serves (the last one
// the dead primary durably committed) before anything touches the root,
// refusing a damaged root as found — the follower keeps serving — then
// restores the engine, drops any uncommitted pre-staged install and
// replays shipped log segments past the epoch's watermark. In a fleet of
// more than one shard the follower must have committed the epoch every
// other shard committed. Writes and epochs resume, a new shipper feeds
// the surviving followers, and pins taken before the promotion keep
// serving untouched.
//
// Each backend slot publishes under
// "serving.<name>.shard<s>.replica<i>.*" (shipped_bytes, applied_epochs,
// lag_epochs, reads_served); promotion retires the promoted follower's
// series via the registry's scoped-unregister support.
#ifndef I2MR_REPLICATION_REPLICA_SET_H_
#define I2MR_REPLICATION_REPLICA_SET_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "replication/follower_replica.h"
#include "replication/replica_shipper.h"
#include "serving/shard_group.h"

namespace i2mr {

struct ReplicaSetOptions {
  /// Followers per shard.
  int replicas_per_shard = 1;

  /// Staleness threshold for routing (see ReplicaShipper).
  uint64_t max_replica_lag_epochs = 4;

  /// Shipper poll fallback interval.
  int ship_poll_ms = 20;

  /// Wipe the replica roots on Open (fresh deployment) vs re-attach.
  /// (Followers take every pipeline option, durability included, from
  /// the router's shard options.)
  bool reset = true;

  /// Simulated per-backend service time per point read, charged under the
  /// backend's slot mutex (the CostModel idiom: capacity is modeled by
  /// sleeping, so replica read scaling is measurable on any host). 0 = off.
  double read_service_ms = 0;

  /// Include the primary in the read rotation (false = reads only ever
  /// touch followers, primary takes writes + refreshes).
  bool read_from_primary = true;

  /// Scatter-gather threads for snapshot Range/TopK (0 = auto).
  int scatter_threads = 0;

  /// Counter registry (the router's when null).
  MetricsRegistry* metrics = nullptr;
};

class ReplicaSet {
 public:
  /// Open the followers, start the per-shard shippers. The
  /// router must outlive the set; the router should already be
  /// bootstrapped (shipping begins from its current committed state).
  static StatusOr<std::unique_ptr<ReplicaSet>> Open(ShardRouter* router,
                                                    const std::string& replicas_root,
                                                    ReplicaSetOptions options = {});
  ~ReplicaSet();
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // -- Reads -----------------------------------------------------------------

  /// Pin an epoch-consistent snapshot: one uniform cut, each shard's pin
  /// taken from a round-robin-selected backend at the cut's epoch (primary
  /// or follower; the live primary when no follower is at it).
  StatusOr<ShardSnapshot> PinSnapshot() const;

  /// Load-balanced point read: selects a backend for the key's shard,
  /// charges its slot's service time, reads its committed epoch.
  StatusOr<std::string> Get(const std::string& key) const;

  // -- Writes (through the router) ------------------------------------------

  /// ShardRouter::Append / AppendBatch / DrainAll, refused while the set is
  /// bound to a generation the router left (call Rebind()).
  StatusOr<uint64_t> Append(const DeltaKV& delta);
  Status AppendBatch(const std::vector<DeltaKV>& deltas);
  Status DrainAll();

  /// One synchronous ship pass on every shard (tests: reach a known
  /// replicated state without sleeping on the poll loop).
  Status SyncAll();

  // -- Failure injection + failover ------------------------------------------

  /// Take follower (shard, i) out of service: shipping and routing skip it.
  Status KillReplica(int shard, int i);
  /// Re-run a killed follower's recovery (Pipeline::Reload) and put it
  /// back in service; the shipper catches it back up.
  Status RestartReplica(int shard, int i);

  /// Kill shard `shard`'s primary: the router marks it lost (writes to the
  /// shard, coordinated epochs and reshards are refused), its shipper
  /// stops, reads continue from caught-up followers.
  Status KillPrimary(int shard);
  bool primary_dead(int shard) const;

  /// Promote the freshest caught-up follower of a dead-primary shard to
  /// primary (ShardRouter::PromotePrimary, which promotes its pipeline in
  /// place after verifying it).
  /// Returns the promoted follower's index. Writes and epochs succeed
  /// again after this returns.
  StatusOr<int> Promote(int shard);

  // -- Introspection ---------------------------------------------------------

  /// Re-bind the set to the router's current partition map after an
  /// elastic reshard bumped the generation: stop the old shippers, retire
  /// the old per-shard state (outstanding snapshot pins keep serving), and
  /// rebuild followers + shippers against the new generation's shards
  /// (replica roots under `<replicas_root>/<gen-shard-dir>/replica-<i>`).
  /// No-op when the generations already match. Reads and writes between
  /// the cutover and Rebind() fail with FailedPrecondition rather than
  /// routing by a stale map.
  Status Rebind();

  /// The partition-map generation this set's shard states were built for.
  uint64_t bound_generation() const;

  /// Lag of follower (shard, i) behind the shard's primary, in epochs (0
  /// for the follower promoted to primary: its root IS the primary).
  uint64_t ReplicaLag(int shard, int i) const;
  /// Skipped by routing: out of service, not serving, or lag beyond max.
  /// False for the promoted follower, which serves as the shard's primary.
  bool IsReplicaStale(int shard, int i) const;
  /// True when follower (shard, i) was promoted to the shard's primary.
  bool IsReplicaPromoted(int shard, int i) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int replicas_per_shard() const { return options_.replicas_per_shard; }
  FollowerReplica* replica(int shard, int i) const {
    return shards_[shard]->followers[i].get();
  }
  ReplicaShipper* shipper(int shard) const {
    return shards_[shard]->shipper.get();
  }
  /// The shard's current primary (the router's promoted pipeline after
  /// failover).
  Pipeline* primary(int shard) const;

 private:
  /// One read-serving slot: a backend plus its simulated service capacity.
  struct Slot {
    std::mutex service_mu;
    Counter* reads = nullptr;
  };

  struct ShardState {
    /// The router's pipeline for this shard (borrowed; Promote repoints it).
    Pipeline* primary = nullptr;
    /// A KillPrimary/Promote transition is in flight (set/cleared under
    /// route_mu_). Serializes failover steps that must run outside the
    /// lock: concurrent promotions of one shard would both hand a follower
    /// slice to the router, and a promotion racing KillPrimary could swap
    /// st.shipper out from under the Stop() in progress.
    bool transitioning = false;
    int promoted_replica = -1;
    std::vector<std::unique_ptr<FollowerReplica>> followers;
    /// Stopped while the primary is dead; Promote starts a new one.
    std::unique_ptr<ReplicaShipper> shipper;
    /// slots[0] = primary, slots[1 + i] = follower i.
    std::vector<std::unique_ptr<Slot>> slots;
    std::atomic<uint64_t> rr{0};
  };

  ReplicaSet(ShardRouter* router, std::string replicas_root,
             ReplicaSetOptions options);

  /// Build shards_ (followers, slots, shippers) for bound_map_. Caller
  /// guarantees shards_ is empty and no reader is concurrent (Open/Rebind).
  Status BindShards();

  /// FailedPrecondition when the router's live generation moved past the
  /// one this set was built for (reshard cutover without Rebind()).
  Status CheckGenerationLocked() const;

  std::string MetricsPrefix(int shard) const;
  /// Epochs follower i trails the shard primary's committed epoch (which
  /// freezes while the primary is dead).
  uint64_t LagLocked(const ShardState& st, int i) const;
  /// Follower i is in service and has a committed epoch to serve.
  bool ServingLocked(const ShardState& st, int i) const;
  bool StaleLocked(const ShardState& st, int i) const;
  /// The serving follower with the highest committed epoch (-1: none).
  int FreshestServingLocked(const ShardState& st) const;
  /// Round-robin pick of an eligible backend slot index for shard `shard`
  /// (0 = primary, 1 + i = follower i); -1 when nothing can serve.
  int SelectSlotLocked(int shard) const;
  void ChargeService(Slot* slot) const;
  void StartShipper(ShardState& st, int shard);

  ShardRouter* const router_;
  const std::string replicas_root_;
  ReplicaSetOptions options_;
  MetricsRegistry* metrics_ = nullptr;
  mutable ThreadPool scatter_pool_;
  Counter* snapshots_pinned_ = nullptr;
  Counter* failovers_ = nullptr;

  /// Guards shard state transitions (kill/restart/promote) against backend
  /// selection. Never held while sleeping in ChargeService or while a
  /// shipper pass runs.
  mutable std::mutex route_mu_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// The partition map shards_ was built against (guarded by route_mu_;
  /// replaced only by Rebind).
  PartitionMap bound_map_{0, 0};
  /// Previous generations' shard states, kept alive by Rebind: a read in
  /// flight may still hold one's slot or follower.
  std::vector<std::unique_ptr<ShardState>> retired_;
};

}  // namespace i2mr

#endif  // I2MR_REPLICATION_REPLICA_SET_H_
