#include "common/metrics_exporter.h"

#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "io/env.h"

namespace i2mr {

MetricsExporter::MetricsExporter(MetricsExporterOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = MetricsRegistry::Default();
  }
}

MetricsExporter::~MetricsExporter() { Stop(); }

std::string MetricsExporter::SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

std::string MetricsExporter::Render() const {
  const MetricsRegistry& reg = *options_.registry;
  std::string out;
  char buf[256];
  for (const auto& [name, value] : reg.Snapshot()) {
    const std::string id = SanitizeName(name);
    std::snprintf(buf, sizeof(buf), "# TYPE %s counter\n%s %lld\n",
                  id.c_str(), id.c_str(), static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : reg.SnapshotGauges()) {
    const std::string id = SanitizeName(name);
    std::snprintf(buf, sizeof(buf), "# TYPE %s gauge\n%s %lld\n",
                  id.c_str(), id.c_str(), static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, histogram] : reg.Histograms()) {
    const std::string id = SanitizeName(name);
    std::snprintf(
        buf, sizeof(buf),
        "# TYPE %s summary\n"
        "%s{quantile=\"0.5\"} %lld\n"
        "%s{quantile=\"0.95\"} %lld\n"
        "%s{quantile=\"0.99\"} %lld\n"
        "%s_sum %lld\n"
        "%s_count %llu\n",
        id.c_str(), id.c_str(), static_cast<long long>(histogram->p50()),
        id.c_str(), static_cast<long long>(histogram->p95()), id.c_str(),
        static_cast<long long>(histogram->p99()), id.c_str(),
        static_cast<long long>(histogram->sum()), id.c_str(),
        static_cast<unsigned long long>(histogram->count()));
    out += buf;
  }
  return out;
}

Status MetricsExporter::WriteOnce() {
  if (options_.path.empty()) {
    return Status::InvalidArgument("MetricsExporter needs a path");
  }
  return ReplaceFileDurably(options_.path, Render(), /*sync=*/false);
}

void MetricsExporter::WriterLoop() {
  HealthRegistry* health = options_.health != nullptr
                               ? options_.health
                               : HealthRegistry::Default();
  bool degraded = false;
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    lock.unlock();
    Status st = WriteOnce();
    if (!st.ok()) {
      // Scrapers keep the last complete exposition (tmp+rename); the next
      // interval retries. Never worth failing the process over.
      LOG_WARN << "metrics exposition write failed (will retry next "
               << "interval): " << st.ToString();
      health->Report("metrics.exporter", HealthState::kDegraded,
                     st.ToString());
      degraded = true;
    } else if (degraded) {
      health->Report("metrics.exporter", HealthState::kHealthy);
      degraded = false;
    }
    lock.lock();
    cv_.wait_for(lock,
                 std::chrono::duration<double, std::milli>(
                     options_.interval_ms),
                 [this] { return !running_; });
  }
}

void MetricsExporter::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
  }
  writer_ = std::thread(&MetricsExporter::WriterLoop, this);
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  (void)WriteOnce();  // final flush so the file reflects shutdown state
}

}  // namespace i2mr
