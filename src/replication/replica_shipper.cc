#include "replication/replica_shipper.h"

#include <chrono>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "common/trace.h"
#include "io/env.h"
#include "pipeline/delta_log.h"

namespace i2mr {

ReplicaShipper::ReplicaShipper(Pipeline* primary,
                               std::vector<FollowerReplica*> followers,
                               ReplicaShipperOptions options)
    : primary_(primary),
      followers_(std::move(followers)),
      options_(options) {}

ReplicaShipper::~ReplicaShipper() { Stop(); }

void ReplicaShipper::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    stop_ = false;
    dirty_ = true;  // ship whatever already exists
  }
  Pipeline::EpochListener listener;
  listener.on_staged = [this](uint64_t epoch, const std::string& dir) {
    std::lock_guard<std::mutex> lock(mu_);
    staged_hint_epoch_ = epoch;
    staged_hint_dir_ = dir;
    dirty_ = true;
    cv_.notify_all();
  };
  listener.on_committed = [this](uint64_t, const std::string&, uint64_t) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;
    cv_.notify_all();
  };
  primary_->SetEpochListener(std::move(listener));
  primary_->log()->SetSealListener([this](const std::string&, uint64_t) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;
    cv_.notify_all();
  });
  thread_ = std::thread([this] { ThreadMain(); });
}

void ReplicaShipper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  // Detach first: both setters block until an in-flight notification
  // drains, so after they return no callback can touch this object.
  primary_->SetEpochListener({});
  primary_->log()->SetSealListener(nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void ReplicaShipper::ThreadMain() {
  trace::TraceCollector::SetThreadName("replica-shipper");
  HealthRegistry* health = options_.health != nullptr
                               ? options_.health
                               : HealthRegistry::Default();
  const bool report = !options_.health_component.empty();
  // Jitter decorrelates the per-shard shippers of a ReplicaSet: without
  // it they all fail on the same sick disk and all retry on the same
  // beat. Seeded off `this` — determinism across runs doesn't matter
  // here, only spread across instances.
  Rng jitter(0x5eed0000ULL ^ reinterpret_cast<uintptr_t>(this));
  int failures = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (failures == 0) {
        cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                     [this] { return stop_ || dirty_; });
      } else {
        // Failure backoff: poll_ms, 2*poll_ms, ... capped, +-25% jitter.
        // Dirty notifications are deliberately ignored (every commit/seal
        // on the primary raises one; honoring them would retry the sick
        // follower at commit rate) — only stop_ cuts the wait short.
        int64_t base = std::min<int64_t>(
            options_.max_backoff_ms,
            static_cast<int64_t>(options_.poll_ms)
                << std::min(failures - 1, 16));
        int64_t wait_ms =
            base - base / 4 + static_cast<int64_t>(jitter.Uniform(
                                  static_cast<uint64_t>(base / 2 + 1)));
        cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                     [this] { return stop_; });
      }
      if (stop_) return;
      dirty_ = false;
    }
    Status st = ShipPass();
    if (!st.ok()) {
      ++failures;
      LOG_WARN << "replica shipper pass failed (attempt " << failures
               << ", will retry with backoff): " << st.ToString();
      if (report) {
        health->Report(options_.health_component, HealthState::kDegraded,
                       st.ToString());
      }
    } else {
      if (failures > 0 && report) {
        health->Report(options_.health_component, HealthState::kHealthy);
      }
      failures = 0;
    }
  }
}

Status ReplicaShipper::ShipPass() {
  std::lock_guard<std::mutex> pass_lock(pass_mu_);
  // Pinning the committed epoch keeps its dir on disk for the whole pass,
  // so staging can never race the primary's post-commit GC.
  EpochPin pin = primary_->PinServing();
  if (!pin.valid()) return Status::OK();  // not bootstrapped yet

  const std::vector<std::string> segments =
      primary_->log()->ShippableSegmentPaths();

  Status first_error = Status::OK();
  for (FollowerReplica* f : followers_) {
    if (!f->in_service()) continue;
    Status st = ShipToFollower(f, pin, segments);
    if (!st.ok() && first_error.ok()) first_error = st;
    uint64_t committed = primary_->committed_epoch();
    uint64_t applied = f->pipeline()->committed_epoch();
    f->lag_epochs()->Set(
        static_cast<int64_t>(committed > applied ? committed - applied : 0));
  }
  return first_error;
}

Status ReplicaShipper::ShipToFollower(
    FollowerReplica* f, const EpochPin& pin,
    const std::vector<std::string>& segments) {
  Pipeline* follower = f->pipeline();
  TRACE_SPAN("replica.ship", "epoch=%llu follower=%s",
             static_cast<unsigned long long>(pin.epoch()),
             follower->dir().c_str());
  const bool sync = follower->options().durability ==
                    DurabilityMode::kPowerFailure;
  const std::string log_dir = JoinPath(follower->dir(), "log");
  // 1. Log shipping: land every sealed/archived segment the follower
  // doesn't hold. A segment can be retired (renamed into archive/, or
  // re-encoded as .lzd) between listing and copy — that install fails,
  // and the next pass ships its archived form instead. Dedup is by first
  // sequence number, not filename: the primary re-encodes a raw sealed
  // `seg-X.dat` as `archive/seg-X.lzd` once it's consumed, and a follower
  // that kept the earlier raw copy already holds those records — shipping
  // the compressed twin too would make a later promotion's recovery scan
  // see the same seq span twice and fail as a sequence regression.
  I2MR_RETURN_IF_ERROR(CreateDirs(log_dir));
  std::set<uint64_t> have = DeltaLogSegmentFirstSeqs(log_dir);
  for (const auto& seg : segments) {
    if (have.count(DeltaLogSegmentFirstSeq(seg)) > 0) continue;
    if (!FileExists(seg)) continue;
    auto bytes = InstallDeltaLogSegment(log_dir, seg, sync);
    if (bytes.ok()) {
      have.insert(DeltaLogSegmentFirstSeq(seg));
      f->shipped_bytes()->Add(static_cast<int64_t>(*bytes));
    } else {
      LOG_WARN << "segment ship " << seg << " -> " << log_dir
               << " failed (will retry): " << bytes.status().ToString();
    }
  }

  // 2. Epoch shipping: only the primary's durably committed epoch is ever
  // committed at the follower.
  if (!follower->bootstrapped() || pin.epoch() > follower->committed_epoch()) {
    I2MR_RETURN_IF_ERROR(Install(f, pin.epoch(), pin.watermark(), pin.dir()));
    TRACE_SPAN("replica.apply", "epoch=%llu",
               static_cast<unsigned long long>(pin.epoch()));
    I2MR_RETURN_IF_ERROR(follower->FinalizeStagedEpoch());
    I2MR_RETURN_IF_ERROR(follower->CleanupCommitted());
    f->applied_epochs()->Increment();
  }

  // 3. Trim shipped history the follower's committed epoch has consumed.
  I2MR_RETURN_IF_ERROR(PurgeDeltaLogSegmentsThrough(
      log_dir, follower->committed_watermark(), sync));

  // 4. Pre-stage a newer staged-but-uncommitted epoch so the eventual
  // commit is installed with a rename instead of a copy. Best-effort: a
  // barrier abort removes the staged dir, and the stale install is simply
  // replaced by the next real one.
  uint64_t hint_epoch = 0;
  std::string hint_dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hint_epoch = staged_hint_epoch_;
    hint_dir = staged_hint_dir_;
  }
  if (hint_epoch > pin.epoch() && FileExists(hint_dir)) {
    uint64_t e = 0, w = 0;
    if (EpochStore::ReadManifest(hint_dir, &e, &w).ok() && e == hint_epoch) {
      if (Status st = Install(f, e, w, hint_dir); !st.ok()) {
        LOG_DEBUG << "pre-stage hint for epoch " << e
                  << " not taken: " << st.ToString();
      }
    }
  }
  return Status::OK();
}

Status ReplicaShipper::Install(FollowerReplica* f, uint64_t epoch,
                               uint64_t watermark, const std::string& dir) {
  TRACE_SPAN("replica.verify", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  auto bytes = f->pipeline()->InstallEpoch(epoch, watermark, dir);
  if (!bytes.ok()) return bytes.status();
  f->shipped_bytes()->Add(static_cast<int64_t>(*bytes));
  return Status::OK();
}

}  // namespace i2mr
