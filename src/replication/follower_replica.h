// FollowerReplica: one follower of a shard, as a ReplicaSet keeps it.
//
// The follower itself is a shard slice — a LocalCluster and a Pipeline
// opened read-only over the follower's own root (ShardRouter::OpenShard)
// — laid out exactly like a primary's, so what a shipper installs is
// byte-for-byte what a restarted primary recovers from, and promotion is
// Pipeline::Promote() on the open slice. This record adds only what the
// set needs per follower: whether it is in service, its counters, and a
// pin that honours the flag. Pins keep their in-memory stores across a
// kill and even across promotion.
#ifndef I2MR_REPLICATION_FOLLOWER_REPLICA_H_
#define I2MR_REPLICATION_FOLLOWER_REPLICA_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "serving/shard_router.h"

namespace i2mr {

class FollowerReplica {
 public:
  /// Counters publish under `metrics_prefix` (e.g.
  /// "serving.pr.shard0.replica1") through a scoped handle that
  /// RetireMetrics() (or destruction) unregisters.
  FollowerReplica(std::unique_ptr<ShardRouter::Shard> shard,
                  MetricsRegistry* metrics, const std::string& metrics_prefix)
      : shard_(std::move(shard)),
        pipeline_(shard_->pipeline.get()),
        metric_scope_(metrics, metrics_prefix),
        shipped_bytes_(metric_scope_.Get("shipped_bytes")),
        applied_epochs_(metric_scope_.Get("applied_epochs")),
        lag_epochs_(metric_scope_.GetGauge("lag_epochs")),
        reads_served_(metric_scope_.Get("reads_served")) {}
  FollowerReplica(const FollowerReplica&) = delete;
  FollowerReplica& operator=(const FollowerReplica&) = delete;

  /// The follower's pipeline: read-only until promoted, then the shard's
  /// primary (owned by the router from then on).
  Pipeline* pipeline() const { return pipeline_; }
  /// The slice, until PromotePrimary takes it.
  std::unique_ptr<ShardRouter::Shard>* shard() { return &shard_; }

  /// The one out-of-service flag: shipping and routing skip a follower
  /// that is not in service (killed, or promoted to primary).
  bool in_service() const { return in_service_.load(); }
  void set_in_service(bool in_service) { in_service_.store(in_service); }

  /// Pin the committed epoch for versioned reads (invalid when out of
  /// service or before the first install).
  EpochPin PinServing() const {
    return in_service() ? pipeline_->PinServing() : EpochPin();
  }

  Counter* shipped_bytes() const { return shipped_bytes_; }
  Counter* applied_epochs() const { return applied_epochs_; }
  Gauge* lag_epochs() const { return lag_epochs_; }
  Counter* reads_served() const { return reads_served_; }
  /// Unregister the counter family (promotion, rebind).
  void RetireMetrics() { metric_scope_.Reset(); }

 private:
  std::unique_ptr<ShardRouter::Shard> shard_;
  Pipeline* const pipeline_;
  std::atomic<bool> in_service_{true};
  ScopedMetricPrefix metric_scope_;
  Counter* const shipped_bytes_;
  Counter* const applied_epochs_;
  Gauge* const lag_epochs_;
  Counter* const reads_served_;
};

}  // namespace i2mr

#endif  // I2MR_REPLICATION_FOLLOWER_REPLICA_H_
