// ReplicaShipper: tails one primary pipeline's delta log and epoch commits
// and ships them to that shard's follower replicas.
//
// The shipper is event-driven with a poll fallback: it registers the
// pipeline's EpochListener (staged dirs may be pre-staged at followers;
// committed epochs may be served) and the delta log's seal listener (a
// rotated segment is immutable and shippable), and each notification wakes
// the ship thread for a pass. A pass, per follower in service:
//
//   1. installs sealed/archived segments the follower doesn't hold yet
//      (compressed `.lzd` archives ship as-is — the follower's recovery
//      scan reads them transparently),
//   2. commits the primary's committed epoch at a follower that is behind,
//      through the follower pipeline's own InstallEpoch + FinalizeStaged-
//      Epoch (never past the committed epoch: a staged-only epoch is at
//      most pre-staged, so a follower cannot serve data the primary
//      hasn't durably committed),
//   3. advances the follower log's purge mark to its committed watermark,
//      trimming segments a promotion would not need, and
//   4. publishes the follower's lag gauge.
//
// Passes are idempotent: every step re-derives what is missing from disk
// state, so a crashed/raced pass is healed by the next one. Whether a
// follower is fresh enough to serve is ReplicaSet's routing decision
// (ReplicaLag / IsReplicaStale), not the shipper's; both skip a follower
// out of service.
#ifndef I2MR_REPLICATION_REPLICA_SHIPPER_H_
#define I2MR_REPLICATION_REPLICA_SHIPPER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/health.h"
#include "common/status.h"
#include "pipeline/pipeline.h"
#include "replication/follower_replica.h"

namespace i2mr {

struct ReplicaShipperOptions {
  /// Poll fallback interval; commit/seal notifications wake the thread
  /// sooner.
  int poll_ms = 20;

  /// Cap on the ship thread's failure backoff. Consecutive failed passes
  /// back off exponentially (poll_ms, 2*poll_ms, ... max_backoff_ms) with
  /// jitter, ignoring dirty notifications meanwhile — a follower on a
  /// sick disk must not be retried at commit rate. Any successful pass
  /// resets the backoff.
  int max_backoff_ms = 1000;

  /// When health_component is non-empty the shipper reports it into
  /// `health` (Default() when null): kDegraded while passes are failing,
  /// kHealthy once a pass fully succeeds again. ReplicaSet wires
  /// "replication.<name>.shard<i>" here.
  HealthRegistry* health = nullptr;
  std::string health_component;
};

class ReplicaShipper {
 public:
  /// Ships from `primary` to `followers` (borrowed; must outlive the
  /// shipper or its Stop()).
  ReplicaShipper(Pipeline* primary, std::vector<FollowerReplica*> followers,
                 ReplicaShipperOptions options = {});
  ~ReplicaShipper();
  ReplicaShipper(const ReplicaShipper&) = delete;
  ReplicaShipper& operator=(const ReplicaShipper&) = delete;

  /// Register the pipeline/log listeners and start the ship thread.
  void Start();
  /// Detach the listeners (waiting out in-flight notifications) and join
  /// the thread. Safe to call twice; called by the destructor.
  void Stop();

  /// Run one ship pass inline and return its status (tests and promotion
  /// use this to reach a known-shipped state without sleeping).
  Status SyncNow() { return ShipPass(); }

 private:
  void ThreadMain();
  /// One full pass over the followers in service. Serialized by pass_mu_
  /// (ship thread vs SyncNow); takes no other shipper lock while calling
  /// into the pipeline/log/followers.
  Status ShipPass();
  Status ShipToFollower(FollowerReplica* f, const EpochPin& pin,
                        const std::vector<std::string>& segments);
  /// InstallEpoch at follower `f`, counting the bytes copied.
  Status Install(FollowerReplica* f, uint64_t epoch, uint64_t watermark,
                 const std::string& dir);

  Pipeline* const primary_;
  const std::vector<FollowerReplica*> followers_;
  const ReplicaShipperOptions options_;

  /// Wakeup state (leaf lock: never held across ship work).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool dirty_ = false;
  bool stop_ = false;
  bool started_ = false;
  /// Freshest staged-but-uncommitted epoch observed (0 = none): passes
  /// pre-stage it at followers so the commit-time promote is a rename.
  uint64_t staged_hint_epoch_ = 0;
  std::string staged_hint_dir_;

  /// Serializes passes.
  std::mutex pass_mu_;
  std::thread thread_;
};

}  // namespace i2mr

#endif  // I2MR_REPLICATION_REPLICA_SHIPPER_H_
