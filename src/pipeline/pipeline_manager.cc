#include "pipeline/pipeline_manager.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/timer.h"

namespace i2mr {

// ---------------------------------------------------------------------------
// ServingView
// ---------------------------------------------------------------------------

StatusOr<std::string> ServingView::Lookup(const std::string& pipeline,
                                          const std::string& key) const {
  Pipeline* p = manager_->Get(pipeline);
  if (p == nullptr) return Status::NotFound("unknown pipeline " + pipeline);
  manager_->reads_served_.Increment();
  return p->Lookup(key);
}

StatusOr<std::vector<KV>> ServingView::Snapshot(
    const std::string& pipeline) const {
  Pipeline* p = manager_->Get(pipeline);
  if (p == nullptr) return Status::NotFound("unknown pipeline " + pipeline);
  manager_->reads_served_.Increment();
  return p->ServingSnapshot();
}

StatusOr<uint64_t> ServingView::CommittedEpoch(
    const std::string& pipeline) const {
  Pipeline* p = manager_->Get(pipeline);
  if (p == nullptr) return Status::NotFound("unknown pipeline " + pipeline);
  return p->committed_epoch();
}

// ---------------------------------------------------------------------------
// PipelineManager
// ---------------------------------------------------------------------------

PipelineManager::PipelineManager(LocalCluster* cluster,
                                 PipelineManagerOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      sched_pool_(options_.scheduler_threads > 0 ? options_.scheduler_threads
                                                 : 1,
                  "epoch-sched"),
      view_(this) {
  if (options_.metrics == nullptr) options_.metrics = MetricsRegistry::Default();
  const std::string& prefix = options_.metrics_prefix;
  epochs_committed_.published = options_.metrics->Get(prefix + ".epochs_committed");
  deltas_applied_.published = options_.metrics->Get(prefix + ".deltas_applied");
  epoch_failures_.published = options_.metrics->Get(prefix + ".epoch_failures");
  reads_served_.published = options_.metrics->Get(prefix + ".reads_served");
  epoch_wall_hist_ = options_.metrics->GetHistogram(prefix + ".epoch_wall_ns");
}

PipelineManager::~PipelineManager() {
  Stop();
  sched_pool_.WaitIdle();
}

StatusOr<Pipeline*> PipelineManager::Register(const std::string& name,
                                              PipelineOptions options) {
  // register_mu_ serializes the whole name-check + Open + emplace: two
  // concurrent Registers with the same name must never both run
  // Pipeline::Open (it mutates the pipeline's directory). mu_ alone only
  // protects the map and is not held across the (slow) Open.
  std::lock_guard<std::mutex> register_lock(register_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(name) > 0) {
      return Status::AlreadyExists("pipeline " + name + " already registered");
    }
  }
  if (options.durability < options_.durability) {
    options.durability = options_.durability;  // manager-wide floor
  }
  auto pipeline = Pipeline::Open(cluster_, name, std::move(options));
  if (!pipeline.ok()) return pipeline.status();
  auto entry = std::make_unique<Entry>();
  entry->pipeline = std::move(pipeline.value());
  Pipeline* raw = entry->pipeline.get();
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(name, std::move(entry));
  return raw;
}

Pipeline* PipelineManager::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second->pipeline.get();
}

std::vector<std::string> PipelineManager::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, _] : entries_) names.push_back(name);
  return names;
}

StatusOr<uint64_t> PipelineManager::Append(const std::string& name,
                                           const DeltaKV& delta) {
  Pipeline* p = Get(name);
  if (p == nullptr) return Status::NotFound("unknown pipeline " + name);
  return p->Append(delta);
}

Status PipelineManager::AppendBatch(const std::string& name,
                                    const std::vector<DeltaKV>& deltas) {
  Pipeline* p = Get(name);
  if (p == nullptr) return Status::NotFound("unknown pipeline " + name);
  auto seq = p->AppendBatch(deltas);
  return seq.ok() ? Status::OK() : seq.status();
}

std::vector<PipelineManager::Entry*> PipelineManager::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) out.push_back(entry.get());
  return out;
}

void PipelineManager::RunEpochTask(Entry* entry) {
  auto stats = entry->pipeline->RunEpoch();
  if (stats.ok()) {
    if (stats->deltas_applied > 0) {
      epochs_committed_.Increment();
      deltas_applied_.Add(stats->deltas_applied);
      epoch_wall_hist_->Record(
          static_cast<int64_t>(stats->wall_ms * 1e6));
      if (options_.slow_epoch_ms > 0 &&
          stats->wall_ms > options_.slow_epoch_ms) {
        LOG_WARN << "slow_epoch pipeline=" << entry->pipeline->name()
                 << " epoch=" << stats->epoch
                 << " wall_ms=" << stats->wall_ms
                 << " refresh_ms=" << stats->refresh_ms
                 << " commit_ms=" << stats->commit_ms
                 << " map_ms=" << stats->refresh_map_ms
                 << " shuffle_ms=" << stats->refresh_shuffle_ms
                 << " sort_ms=" << stats->refresh_sort_ms
                 << " reduce_ms=" << stats->refresh_reduce_ms
                 << " merge_ms=" << stats->refresh_merge_ms
                 << " deltas=" << stats->deltas_applied
                 << " iterations=" << stats->iterations
                 << " threshold_ms=" << options_.slow_epoch_ms;
      }
    }
    entry->consecutive_failures.store(0);
    entry->next_attempt_ns.store(0);
  } else {
    epoch_failures_.Increment();
    int failures = entry->consecutive_failures.fetch_add(1) + 1;
    // Exponential backoff, capped at 30s: 100ms, 200ms, 400ms, ...
    int64_t backoff_ms = std::min<int64_t>(30000, 100LL << std::min(failures - 1, 20));
    entry->next_attempt_ns.store(NowNanos() + backoff_ms * 1000000);
    LOG_WARN << "pipeline " << entry->pipeline->name() << " epoch failed ("
             << stats.status().ToString() << "); backing off " << backoff_ms
             << "ms";
    std::lock_guard<std::mutex> lock(entry->err_mu);
    entry->last_error = stats.status();
  }
  entry->running.store(false);
}

bool PipelineManager::SubmitEpoch(Entry* entry) {
  if (entry->pipeline->pending() == 0) return false;
  if (entry->running.exchange(true)) return false;  // epoch already in flight
  sched_pool_.Submit([this, entry] { RunEpochTask(entry); });
  return true;
}

int PipelineManager::ScheduleReady() {
  int scheduled = 0;
  int64_t now = NowNanos();
  for (Entry* entry : Entries()) {
    if (now < entry->next_attempt_ns.load()) continue;  // failure backoff
    // A degraded (read-only) pipeline pauses epoch scheduling: its log is
    // bouncing appends, so an epoch would either find nothing new or fail
    // against the same sick disk. The append-side probe write flips the
    // pipeline healthy again, and the next poll round resumes scheduling.
    if (entry->pipeline->degraded()) continue;
    if (!entry->pipeline->EpochReady()) continue;
    if (SubmitEpoch(entry)) ++scheduled;
  }
  return scheduled;
}

Status PipelineManager::DrainAll() {
  // Errors latched by earlier background (poller-scheduled) epochs belong
  // to those epochs, not to this drain — they are already counted in
  // stats().epoch_failures. Start from a clean slate so a fully successful
  // drain reports OK.
  for (Entry* entry : Entries()) {
    std::lock_guard<std::mutex> lock(entry->err_mu);
    entry->last_error = Status::OK();
  }
  for (;;) {
    bool any = false;
    for (Entry* entry : Entries()) {
      if (entry->pipeline->bootstrapped() && SubmitEpoch(entry)) any = true;
    }
    sched_pool_.WaitIdle();
    Status first_error;
    for (Entry* entry : Entries()) {
      std::lock_guard<std::mutex> lock(entry->err_mu);
      if (!entry->last_error.ok()) {
        if (first_error.ok()) first_error = entry->last_error;
        entry->last_error = Status::OK();  // clear every latched error
      }
    }
    if (!first_error.ok()) return first_error;
    if (any) continue;
    // Nothing was submitted this round, but an epoch submitted elsewhere
    // (the background poller) may have been in flight with deltas arriving
    // behind its drain point: only stop once nothing is actually pending.
    bool all_drained = true;
    for (Entry* entry : Entries()) {
      if (entry->pipeline->bootstrapped() && entry->pipeline->pending() > 0) {
        all_drained = false;
        break;
      }
    }
    if (all_drained) return Status::OK();
  }
}

void PipelineManager::Start() {
  if (polling_.exchange(true)) return;
  poller_ = std::thread([this] {
    while (polling_.load()) {
      ScheduleReady();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.poll_interval_ms));
    }
  });
}

void PipelineManager::Stop() {
  if (!polling_.exchange(false)) return;
  if (poller_.joinable()) poller_.join();
  sched_pool_.WaitIdle();
}

PipelineManager::Stats PipelineManager::stats() const {
  Stats s;
  s.epochs_committed = epochs_committed_.local.load();
  s.deltas_applied = deltas_applied_.local.load();
  s.epoch_failures = epoch_failures_.local.load();
  s.reads_served = reads_served_.local.load();
  return s;
}

}  // namespace i2mr
