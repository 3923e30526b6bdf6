#include "common/health.h"

#include "common/logging.h"
#include "common/timer.h"

namespace i2mr {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kFailed: return "failed";
  }
  return "unknown";
}

HealthRegistry::HealthRegistry(MetricsRegistry* metrics)
    : metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()) {}

HealthRegistry* HealthRegistry::Default() {
  static HealthRegistry* instance = new HealthRegistry();
  return instance;
}

void HealthRegistry::Report(const std::string& component, HealthState state,
                            const std::string& reason) {
  bool transitioned = false;
  HealthState previous = HealthState::kHealthy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = components_.try_emplace(component);
    ComponentHealth& h = it->second;
    if (inserted) {
      h.component = component;
      h.since_ns = NowNanos();
    }
    previous = h.state;
    // A component's implicit initial state is healthy, so a first report
    // of a non-healthy state is a real transition (and gets logged).
    transitioned = inserted ? state != HealthState::kHealthy
                            : h.state != state;
    if (inserted || transitioned) {
      h.state = state;
      h.since_ns = NowNanos();
      if (transitioned) ++h.transitions;
    }
    h.reason = state == HealthState::kHealthy ? "" : reason;
    metrics_->GetGauge("health." + component)->Set(static_cast<int64_t>(state));
  }
  if (!transitioned) return;
  if (state == HealthState::kHealthy) {
    LOG_INFO << "health: " << component << " recovered ("
             << HealthStateName(previous) << " -> healthy)";
  } else {
    LOG_WARN << "health: " << component << " " << HealthStateName(previous)
             << " -> " << HealthStateName(state)
             << (reason.empty() ? "" : ": " + reason);
  }
}

HealthState HealthRegistry::state(const std::string& component) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = components_.find(component);
  return it == components_.end() ? HealthState::kHealthy : it->second.state;
}

std::string HealthRegistry::reason(const std::string& component) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = components_.find(component);
  return it == components_.end() ? "" : it->second.reason;
}

std::vector<ComponentHealth> HealthRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ComponentHealth> out;
  out.reserve(components_.size());
  for (const auto& [_, health] : components_) out.push_back(health);
  return out;
}

bool HealthRegistry::AllHealthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [_, health] : components_) {
    if (health.state != HealthState::kHealthy) return false;
  }
  return true;
}

std::string HealthRegistry::ToString() const {
  std::string out;
  for (const auto& health : Snapshot()) {
    out += health.component;
    out += ' ';
    out += HealthStateName(health.state);
    if (!health.reason.empty()) {
      out += ' ';
      out += health.reason;
    }
    out += '\n';
  }
  return out;
}

Availability::Availability(HealthRegistry* health, std::string component,
                           Status (*refusal)(std::string))
    : health_(health), component_(std::move(component)), refusal_(refusal) {
  if (health_->state(component_) != HealthState::kHealthy) {
    health_->Report(component_, HealthState::kHealthy);
  }
}

void Availability::Set(HealthState state, Refuses refuses,
                       const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  reason_ = state == HealthState::kHealthy ? "" : reason;
  refuses_.store(refuses, std::memory_order_release);
  health_->Report(component_, state, reason_);
}

std::string Availability::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

Status Availability::Refusal(Op op) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The state may have cleared since Check's load.
  if (static_cast<int>(refuses()) < static_cast<int>(op)) return Status::OK();
  return refusal_(reason_);
}

bool HealthRegistry::Remove(const std::string& component) {
  std::lock_guard<std::mutex> lock(mu_);
  if (components_.erase(component) == 0) return false;
  metrics_->Unregister("health." + component);
  return true;
}

}  // namespace i2mr
