// AdmissionController: per-tenant token-bucket quotas for the serving
// layer. Two buckets per tenant:
//
//   reads  — gates query QPS at the ShardGroup edge (a rejected read
//            returns RESOURCE_EXHAUSTED immediately; it never reaches a
//            shard, so an over-quota tenant costs the servers nothing).
//   epochs — gates refresh scheduling: a ShardRouter's coordinator asks
//            it once per coordinated epoch, so a tenant with a huge delta
//            backlog gets its epochs deferred once over quota, instead of
//            monopolizing the cluster worker pools every other tenant's
//            refreshes run on.
//
// Buckets refill continuously at `rate` tokens/sec up to `burst`. A tenant
// with no quota configured is admitted unconditionally. All decisions are
// counted into a MetricsRegistry under
// "<prefix>.<tenant>.{reads_admitted,reads_rejected,epochs_admitted,
// epochs_deferred}".
#ifndef I2MR_SERVING_ADMISSION_H_
#define I2MR_SERVING_ADMISSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"

namespace i2mr {

struct TenantQuota {
  /// Sustained read admissions per second; < 0 = unlimited, 0 = hard deny
  /// (block this tenant — no burst, every request rejected).
  double read_rate = -1;
  /// Read bucket capacity (momentary burst). <= 0 defaults to max(rate, 1).
  double read_burst = 0;

  /// Sustained epoch-scheduling admissions per second; < 0 = unlimited,
  /// 0 = hard deny (this tenant's refreshes are always deferred).
  double epoch_rate = -1;
  /// Epoch bucket capacity. <= 0 defaults to max(rate, 1).
  double epoch_burst = 0;
};

class AdmissionController {
 public:
  /// Decisions are counted into `metrics` (Default() when null) under
  /// "<metrics_prefix>.<tenant>.*".
  explicit AdmissionController(MetricsRegistry* metrics = nullptr,
                               std::string metrics_prefix = "admission");

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Install (or replace) `tenant`'s quota. Buckets start full.
  void SetQuota(const std::string& tenant, const TenantQuota& quota);

  /// Take `cost` read tokens; false = over quota, reject the read now.
  bool AdmitRead(const std::string& tenant, double cost = 1.0);

  /// Take `cost` epoch tokens; false = defer this tenant's refresh (the
  /// backlog stays in its delta log and is re-evaluated next poll).
  bool AdmitEpoch(const std::string& tenant, double cost = 1.0);

  struct TenantStats {
    uint64_t reads_admitted = 0;
    uint64_t reads_rejected = 0;
    uint64_t epochs_admitted = 0;
    uint64_t epochs_deferred = 0;
  };
  TenantStats tenant_stats(const std::string& tenant) const;

 private:
  struct Bucket {
    double rate = -1;  // < 0 = unlimited
    double burst = 0;
    double tokens = 0;
    int64_t refilled_ns = 0;

    bool TryTake(double cost, int64_t now_ns);
  };

  struct Tenant {
    Bucket reads;
    Bucket epochs;
    Counter* reads_admitted = nullptr;
    Counter* reads_rejected = nullptr;
    Counter* epochs_admitted = nullptr;
    Counter* epochs_deferred = nullptr;
  };

  /// Get-or-create (unquoted tenants still get decision counters).
  Tenant* GetLocked(const std::string& tenant);

  MetricsRegistry* metrics_;
  const std::string prefix_;
  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
};

}  // namespace i2mr

#endif  // I2MR_SERVING_ADMISSION_H_
