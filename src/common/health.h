// Process-wide component health: pipelines, the coordinated router, replica
// shippers and the metrics exporter report kHealthy/kDegraded/kFailed with a
// reason. States mirror into the MetricsRegistry as `health.<component>`
// gauges (0/1/2) so the existing MetricsExporter publishes them for free.
//
// A component that can refuse service (a pipeline, a router, a router's
// shard) holds an Availability: what it refuses right now and why. Every
// refusal check reads it and every transition reports through it, so a
// refused operation and the component's health entry always agree.
#ifndef I2MR_COMMON_HEALTH_H_
#define I2MR_COMMON_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace i2mr {

enum class HealthState : int {
  kHealthy = 0,
  kDegraded = 1,  // reduced service (e.g. read-only), self-recovery expected
  kFailed = 2,    // not serving its function; operator action likely needed
};

const char* HealthStateName(HealthState state);

struct ComponentHealth {
  std::string component;
  HealthState state = HealthState::kHealthy;
  std::string reason;       // empty when healthy
  int64_t since_ns = 0;     // wall time of the last state transition
  uint64_t transitions = 0; // state changes since the component first reported
};

class HealthRegistry {
 public:
  /// Mirrors states into `metrics` (MetricsRegistry::Default() if null).
  explicit HealthRegistry(MetricsRegistry* metrics = nullptr);

  static HealthRegistry* Default();

  /// Idempotent: re-reporting the current state only refreshes the reason.
  /// Transitions are logged (WARN on degrade, INFO on recovery).
  void Report(const std::string& component, HealthState state,
              const std::string& reason = "");

  /// kHealthy for components that never reported.
  HealthState state(const std::string& component) const;
  std::string reason(const std::string& component) const;

  std::vector<ComponentHealth> Snapshot() const;
  bool AllHealthy() const;

  /// One line per component: "<component> <state> [<reason>]".
  std::string ToString() const;

  /// Forget a component (and retire its gauge). Returns true if it existed.
  bool Remove(const std::string& component);

 private:
  MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  std::map<std::string, ComponentHealth> components_;
};

/// One component's availability: what it refuses and why. Set/Clear
/// report every transition to the component's HealthRegistry entry, and
/// Check is the gate every operation passes.
class Availability {
 public:
  enum class Refuses : int { kNothing = 0, kWrites = 1, kEverything = 2 };
  /// kWrites and up refuse a write; only kEverything refuses a read.
  enum class Op : int { kWrite = 1, kRead = 2 };

  /// Refused operations fail with `refusal(reason)`, e.g.
  /// &Status::Unavailable. A new component starts healthy, whatever a
  /// previous incarnation left in its entry.
  Availability(HealthRegistry* health, std::string component,
               Status (*refusal)(std::string));

  /// OK unless `op` is refused: one atomic load while nothing is.
  Status Check(Op op) const {
    if (static_cast<int>(refuses()) < static_cast<int>(op)) return Status::OK();
    return Refusal(op);
  }

  void Set(HealthState state, Refuses refuses, const std::string& reason);
  void Clear() { Set(HealthState::kHealthy, Refuses::kNothing, ""); }

  Refuses refuses() const { return refuses_.load(std::memory_order_acquire); }
  std::string reason() const;  // "" when healthy
  const std::string& component() const { return component_; }

 private:
  Status Refusal(Op op) const;

  HealthRegistry* const health_;
  const std::string component_;
  Status (*const refusal_)(std::string);
  std::atomic<Refuses> refuses_{Refuses::kNothing};
  mutable std::mutex mu_;  // guards reason_ and orders the reports
  std::string reason_;
};

}  // namespace i2mr

#endif  // I2MR_COMMON_HEALTH_H_
