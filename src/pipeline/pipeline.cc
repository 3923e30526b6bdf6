#include "pipeline/pipeline.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/health.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/fault_env.h"

namespace i2mr {

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline::Pipeline(LocalCluster* cluster, std::string name,
                   PipelineOptions options)
    : cluster_(cluster),
      name_(std::move(name)),
      options_(std::move(options)),
      epochs_(JoinPath(cluster_->root(), "pipeline/" + name_),
              options_.durability == DurabilityMode::kPowerFailure),
      availability_(options_.health != nullptr ? options_.health
                                               : HealthRegistry::Default(),
                    "pipeline." + name_, &Status::Unavailable) {
  // One engine namespace per pipeline: state dirs, checkpoints and job
  // scratch space must never collide across pipelines on a shared cluster.
  options_.spec.name = name_;
  // The pipeline's refresh job is resident: submitted once (bootstrap pays
  // the job-startup charge through the engine's initial Run), then kept
  // loop-alive across epochs instead of re-submitting per refresh.
  options_.engine.charge_job_startup_per_refresh = false;
  engine_ = std::make_unique<IncrementalIterativeEngine>(
      cluster_, options_.spec, options_.engine);
}

StatusOr<std::unique_ptr<Pipeline>> Pipeline::Open(LocalCluster* cluster,
                                                   const std::string& name,
                                                   PipelineOptions options) {
  std::unique_ptr<Pipeline> p(new Pipeline(cluster, name, std::move(options)));
  I2MR_RETURN_IF_ERROR(p->OpenImpl());
  return p;
}

Status Pipeline::OpenImpl() {
  I2MR_RETURN_IF_ERROR(CreateDirs(epochs_.dir()));
  // The committed epoch is verified (inside RestoreCommitted) before the
  // log's recovery or any link touches the root: a root with a bad
  // committed snapshot (say, a follower offered for promotion) is refused
  // as it was found.
  auto committed = epochs_.Recover();
  if (!committed.ok()) return committed.status();
  if (*committed) {
    auto store = RestoreCommitted((*committed)->epoch, (*committed)->watermark);
    if (!store.ok()) return store.status();
    epochs_.Publish((*committed)->epoch, (*committed)->watermark,
                    std::make_shared<const ResultStore>(std::move(*store)));
    bootstrapped_.store(true);
  }

  // One durability promise for the whole pipeline: the log must not claim
  // power-failure safety the commit path doesn't match (or vice versa).
  DeltaLogOptions log_options = options_.log;
  log_options.durability = options_.durability;
  auto log = DeltaLog::Open(JoinPath(epochs_.dir(), "log"), log_options);
  if (!log.ok()) return log.status();
  log_ = std::move(log.value());
  // The log's records may all have been purged after the last commit; the
  // next append must still get a sequence above the watermark, or it
  // would look already-consumed and never be refreshed.
  log_->EnsureNextSeqAfter(committed_watermark());
  // Fresh pipeline: nothing committed yet, Bootstrap() must run first.
  // Either way, orphan epoch dirs and slots of a crashed commit go.
  I2MR_RETURN_IF_ERROR(epochs_.Collect());
  if (pending() > 0) oldest_pending_ns_.store(NowNanos());
  return Status::OK();
}

StatusOr<ResultStore> Pipeline::RestoreCommitted(uint64_t epoch,
                                                 uint64_t watermark) {
  const std::string epoch_dir = epochs_.EpochDir(epoch);
  const int n = options_.spec.num_partitions;
  // The committed snapshot is this pipeline's source of truth: verify it
  // before any working file is replaced.
  auto store = EpochStore::Verify(epoch_dir, epoch, watermark, n);
  if (!store.ok()) return store.status();

  // A fresh engine object: drops any open store handles from a crashed
  // refresh before its on-disk files are overwritten.
  engine_ = std::make_unique<IncrementalIterativeEngine>(
      cluster_, options_.spec, options_.engine);

  for (int p = 0; p < n; ++p) {
    std::string src = JoinPath(epoch_dir, EpochStore::PartDirName(p));
    I2MR_RETURN_IF_ERROR(ResetDir(engine_->PartitionDir(p)));
    // Hard links, not copies: O(1) per file. The engine never mutates
    // these inodes in place — every rewrite allocates a fresh inode
    // (WritableFile fresh-inode semantics), and the MRBG store only
    // appends to a fresh active segment, never to a restored one.
    I2MR_RETURN_IF_ERROR(LinkOrCopyFile(JoinPath(src, "structure.dat"),
                                        engine_->StructurePath(p)));
    I2MR_RETURN_IF_ERROR(
        LinkOrCopyFile(JoinPath(src, "state.dat"), engine_->StatePath(p)));
    std::string mrbg_src = JoinPath(src, "mrbg");
    std::error_code mrbg_ec;
    if (std::filesystem::is_directory(mrbg_src, mrbg_ec)) {
      // Epoch-committed MRBG store image: link every file back;
      // MRBGStore::Open rebuilds the index from the MANIFEST's segments.
      I2MR_RETURN_IF_ERROR(CreateDirs(engine_->MrbgDir(p)));
      auto files = ListFiles(mrbg_src);
      if (!files.ok()) return files.status();
      for (const auto& path : *files) {
        I2MR_RETURN_IF_ERROR(LinkOrCopyFile(
            path, JoinPath(engine_->MrbgDir(p), Basename(path))));
      }
    }
    if (FileExists(JoinPath(src, "remote.dat"))) {
      // Cross-shard remote-edge inbox: committed alongside the state so a
      // recovered shard re-reduces with the same remote contributions.
      I2MR_RETURN_IF_ERROR(
          LinkOrCopyFile(JoinPath(src, "remote.dat"),
                         JoinPath(engine_->PartitionDir(p), "remote.dat")));
    }
  }
  I2MR_RETURN_IF_ERROR(engine_->LoadExisting());
  return store;
}

bool Pipeline::SimulateCrash(uint64_t epoch, const char* stage) {
  if (!fault::FaultInjector::Armed() ||
      !fault::FaultInjector::Instance()->AtCrashPoint(
          std::string("pipeline/") + stage)) {
    return false;
  }
  LOG_WARN << "pipeline " << name_ << ": simulated crash in epoch " << epoch
           << " at stage '" << stage << "'";
  dirty_.store(true);
  return true;
}

Status Pipeline::Bootstrap(const std::vector<KV>& structure,
                           const std::vector<KV>& initial_state) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  I2MR_RETURN_IF_ERROR(BootstrapPrepareLocked(structure, initial_state));
  return CommitLocked(/*epoch=*/0, nullptr);
}

void Pipeline::ArmLagTrigger() {
  std::lock_guard<std::mutex> lock(trigger_mu_);
  if (oldest_pending_ns_.load() == 0) oldest_pending_ns_.store(NowNanos());
}

bool Pipeline::ElectProbe() {
  // At most one append per probe interval: the winner of the CAS goes
  // through to the log as the recovery probe, everyone else bounces
  // without touching the (presumed broken) disk.
  int64_t now = NowNanos();
  int64_t next = next_probe_ns_.load(std::memory_order_relaxed);
  return now >= next &&
         next_probe_ns_.compare_exchange_strong(
             next, now + static_cast<int64_t>(
                             options_.degraded_probe_interval_ms * 1e6));
}

StatusOr<uint64_t> Pipeline::Append(const DeltaKV& delta) {
  return AppendBatch({delta});
}

StatusOr<uint64_t> Pipeline::AppendBatch(const std::vector<DeltaKV>& deltas) {
  Status refused = availability_.Check(Availability::Op::kWrite);
  const bool probe = !refused.ok();
  if (probe && !ElectProbe()) return refused;
  Status last;
  for (int attempt = 0;; ++attempt) {
    auto seq = log_->AppendBatch(deltas);
    if (seq.ok()) {
      if (probe) availability_.Clear();
      if (!deltas.empty()) ArmLagTrigger();
      return seq;
    }
    last = seq.status();
    // Only I/O errors are worth retrying or degrading over; a rejected
    // batch (InvalidArgument) or a closed log (FailedPrecondition) won't
    // heal with time — though a closed log still flips to read-only so
    // callers stop hammering a dead log.
    if (!last.IsIOError() || attempt >= options_.append_retries) break;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.append_retry_backoff_ms * static_cast<double>(1 << attempt)));
  }
  if (last.IsIOError() ||
      last.code() == Status::Code::kFailedPrecondition) {
    next_probe_ns_.store(
        NowNanos() +
            static_cast<int64_t>(options_.degraded_probe_interval_ms * 1e6),
        std::memory_order_relaxed);
    // "log closed" (a failed rollback shut the log) needs a reopen to
    // clear; probes can't fix it, so it reads kFailed, not kDegraded.
    availability_.Set(last.code() == Status::Code::kFailedPrecondition
                          ? HealthState::kFailed
                          : HealthState::kDegraded,
                      Availability::Refuses::kWrites,
                      "pipeline " + name_ +
                          " is degraded (read-only): " + last.ToString());
  }
  return last;
}

uint64_t Pipeline::pending() const {
  uint64_t last = log_->last_seq();
  uint64_t committed = committed_watermark();
  return last > committed ? last - committed : 0;
}

double Pipeline::pending_lag_ms() const {
  int64_t oldest = oldest_pending_ns_.load();
  if (oldest == 0 || pending() == 0) return 0;
  return (NowNanos() - oldest) / 1e6;
}

bool Pipeline::EpochReady() const {
  if (!bootstrapped_.load()) return false;
  uint64_t p = pending();
  if (p == 0) return false;
  if (p >= options_.min_batch) return true;
  return options_.max_lag_ms >= 0 && pending_lag_ms() >= options_.max_lag_ms;
}

StatusOr<EpochStats> Pipeline::RunEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  TRACE_SPAN("pipeline.epoch", "pipeline=%s", name_.c_str());
  WallTimer wall;
  auto round = RefreshRoundLocked(/*first=*/true, {});
  if (!round.ok()) return round.status();
  EpochStats stats;
  if (round->deltas_drained == 0) {
    // Nothing pending: no epoch to commit.
    inflight_ = false;
    stats.epoch = committed_epoch();
    stats.watermark = committed_watermark();
    return stats;
  }
  stats.epoch = committed_epoch() + 1;
  Status st = CommitLocked(stats.epoch, &stats.commit_ms);
  if (!st.ok()) {
    dirty_.store(true);
    return st;
  }
  stats.watermark = committed_watermark();
  stats.deltas_applied = round->deltas_drained;
  stats.iterations = round->iterations;
  stats.refresh_ms = round->refresh_ms;
  stats.refresh_map_ms = round->map_ms;
  stats.refresh_shuffle_ms = round->shuffle_ms;
  stats.refresh_sort_ms = round->sort_ms;
  stats.refresh_reduce_ms = round->reduce_ms;
  stats.refresh_merge_ms = round->merge_ms;
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

Status Pipeline::CommitLocked(uint64_t epoch, double* commit_ms) {
  WallTimer timer;
  I2MR_RETURN_IF_ERROR(
      StageEpochLocked(epoch, inflight_watermark_, inflight_drain_ns_));

  if (SimulateCrash(epoch, "commit")) {
    // The epoch dir landed but CURRENT still names the previous epoch: on
    // recovery the orphan dir is garbage-collected and the log replayed.
    return Status::Aborted("simulated crash mid-commit");
  }

  I2MR_RETURN_IF_ERROR(FinalizeStagedLocked());
  I2MR_RETURN_IF_ERROR(CleanupCommittedLocked());
  if (commit_ms != nullptr) *commit_ms = timer.ElapsedMillis();
  return Status::OK();
}

Status Pipeline::StageEpochLocked(uint64_t epoch, uint64_t watermark,
                                  int64_t pending_since_ns) {
  TRACE_SPAN("epoch.stage", "pipeline=%s epoch=%llu", name_.c_str(),
             static_cast<unsigned long long>(epoch));
  const int n = options_.spec.num_partitions;
  // The refresh rounds ran in memory: bring the engine's working files up
  // to the state after the final round — once per epoch, however many
  // rounds it took — before they are linked.
  I2MR_RETURN_IF_ERROR(engine_->Persist());
  I2MR_RETURN_IF_ERROR(epochs_.OpenSlot(epoch));
  const std::string tmp = epochs_.SlotDir(epoch);

  const bool sync = options_.durability == DurabilityMode::kPowerFailure;
  // Snapshot the engine's working files by hard link — O(1) per file
  // instead of O(live bytes) per epoch. Safe because nothing ever mutates
  // a committed inode: rewrites allocate fresh inodes (WritableFile
  // fresh-inode semantics), and the MRBG store's appends only grow its
  // active segment past the length this epoch's MANIFEST records.
  // LinkOrCopyFile falls back to a byte copy across devices.
  std::vector<std::string> snapshot_files;
  for (int p = 0; p < n; ++p) {
    std::string pdir = JoinPath(tmp, EpochStore::PartDirName(p));
    I2MR_RETURN_IF_ERROR(CreateDirs(pdir));
    I2MR_RETURN_IF_ERROR(LinkOrCopyFile(engine_->StructurePath(p),
                                        JoinPath(pdir, "structure.dat")));
    I2MR_RETURN_IF_ERROR(
        LinkOrCopyFile(engine_->StatePath(p), JoinPath(pdir, "state.dat")));
    snapshot_files.push_back(JoinPath(pdir, "structure.dat"));
    snapshot_files.push_back(JoinPath(pdir, "state.dat"));
    // MRBG store image under pdir/mrbg/: the engine picks the file set —
    // a frozen prefix of every segment plus a manifest naming exactly
    // those lengths. Safe
    // concurrently with the store's background compactor: compaction
    // installs fresh inodes and never mutates linked ones.
    size_t before = snapshot_files.size();
    I2MR_RETURN_IF_ERROR(engine_->SnapshotMrbgPartition(
        p, JoinPath(pdir, "mrbg"), &snapshot_files));
    if (sync && snapshot_files.size() > before) {
      I2MR_RETURN_IF_ERROR(SyncDir(JoinPath(pdir, "mrbg")));
    }
    std::string remote_dat = JoinPath(engine_->PartitionDir(p), "remote.dat");
    if (FileExists(remote_dat)) {
      // Cross-shard inbox: committed with the state it was reduced into.
      I2MR_RETURN_IF_ERROR(
          LinkOrCopyFile(remote_dat, JoinPath(pdir, "remote.dat")));
      snapshot_files.push_back(JoinPath(pdir, "remote.dat"));
    }
    if (sync) {
      // The partition dir's entries (the links) must also survive.
      I2MR_RETURN_IF_ERROR(SyncDir(pdir));
    }
  }
  if (sync) {
    // The linked inodes were written through the engine's (unsynced)
    // handles; flush their pages before the MANIFEST claims the snapshot
    // is durable.
    for (const auto& f : snapshot_files) I2MR_RETURN_IF_ERROR(SyncFile(f));
  }

  // The serving snapshot: one ResultStore rooted at the post-rename path
  // (so the long-lived serving object never points into the .tmp dir),
  // persisted into the tmp dir via SaveAs. Built now, while failures are
  // still safe to report — past the CURRENT rename nothing may fail.
  auto serving_store =
      ResultStore::Open(JoinPath(epochs_.EpochDir(epoch), "serving.dat"));
  if (!serving_store.ok()) return serving_store.status();
  engine_->VisitState([&](const std::string& dk, const std::string& dv) {
    serving_store->Put(dk, dv);
  });
  I2MR_RETURN_IF_ERROR(serving_store->SaveAs(JoinPath(tmp, "serving.dat")));
  if (sync) I2MR_RETURN_IF_ERROR(SyncFile(JoinPath(tmp, "serving.dat")));

  I2MR_RETURN_IF_ERROR(
      epochs_.WriteManifest(epoch, watermark, options_.generation));
  I2MR_RETURN_IF_ERROR(epochs_.Seal(epoch));

  // The epoch is staged: everything is durable on disk, but CURRENT still
  // names the previous epoch — a crash here rolls back cleanly, which is
  // exactly what the cross-shard barrier commit needs between its prepare
  // and decide phases.
  staged_ = Staged{epoch, watermark, pending_since_ns,
                   std::make_unique<ResultStore>(std::move(*serving_store))};
  {
    // Everything the epoch will commit is durable under its final dir
    // name; a replica shipper may start copying it out now.
    std::lock_guard<std::mutex> listener_lock(listener_mu_);
    if (listener_.on_staged) {
      listener_.on_staged(epoch, epochs_.EpochDir(epoch));
    }
  }
  return Status::OK();
}

Status Pipeline::FinalizeStagedLocked() {
  if (!staged_) {
    return Status::FailedPrecondition("no staged epoch to finalize");
  }
  TRACE_SPAN("epoch.flip", "pipeline=%s epoch=%llu", name_.c_str(),
             static_cast<unsigned long long>(staged_->epoch));
  // The point of no return: CURRENT now names the new epoch, durably in
  // power-failure mode. A flip that failed after its rename (the dir
  // fsync) still committed: publish it and report the error, since
  // restaging the epoch would delete the dir CURRENT names.
  const Status flipped = epochs_.Flip(staged_->epoch);
  if (!flipped.ok() && epochs_.current() != staged_->epoch) return flipped;
  // One publication: a pin can never pair the new epoch id with the old
  // store (or vice versa) — no half-committed view is observable.
  epochs_.Publish(staged_->epoch, staged_->watermark,
                  std::move(staged_->store));
  {
    // Under trigger_mu_: an append that raced past the pending() read will
    // re-arm the clock after us, never the other way round. Deltas that
    // arrived mid-refresh get their clock backdated to the drain point —
    // an upper bound on their wait so far — so the max-lag trigger fires
    // no later than promised.
    std::lock_guard<std::mutex> trigger_lock(trigger_mu_);
    int64_t since = staged_->pending_since_ns != 0 ? staged_->pending_since_ns
                                                   : NowNanos();
    oldest_pending_ns_.store(pending() > 0 ? since : 0);
  }
  const uint64_t committed_epoch = staged_->epoch;
  const uint64_t committed_watermark = staged_->watermark;
  const std::string committed_dir = epochs_.EpochDir(committed_epoch);
  TRACE_INSTANT("epoch.committed", "pipeline=%s epoch=%llu", name_.c_str(),
                static_cast<unsigned long long>(committed_epoch));
  // The engine's working state is exactly what was just committed.
  bootstrapped_.store(true);
  dirty_.store(false);
  inflight_ = false;
  staged_.reset();
  {
    // Past the point of no return: followers may now serve this epoch.
    std::lock_guard<std::mutex> listener_lock(listener_mu_);
    if (listener_.on_committed) {
      listener_.on_committed(committed_epoch, committed_dir,
                             committed_watermark);
    }
  }
  return flipped;
}

void Pipeline::SetEpochListener(EpochListener listener) {
  // listener_mu_ is held across callback invocations, so this swap waits
  // out an in-flight notification: after SetEpochListener({}) returns, no
  // further callback can run.
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

Status Pipeline::CleanupCommittedLocked() {
  TRACE_SPAN("epoch.cleanup", "pipeline=%s", name_.c_str());
  // Past the point of no return the epoch IS committed: cleanup failures
  // are logged, not reported — reporting them would mark a durably
  // committed epoch as failed and trigger a needless restore + replay.
  Status gc = epochs_.Collect();
  if (!gc.ok()) {
    LOG_WARN << "pipeline " << name_ << ": post-commit GC failed ("
             << gc.ToString() << "); stale dirs remain until next commit";
  }
  Status purged = log_->PurgeThrough(committed_watermark());
  if (!purged.ok()) {
    LOG_WARN << "pipeline " << name_ << ": post-commit log purge failed ("
             << purged.ToString() << "); consumed records retained";
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Coordinated (cross-shard) epochs
// ---------------------------------------------------------------------------

Status Pipeline::BootstrapPrepare(const std::vector<KV>& structure,
                                  const std::vector<KV>& initial_state) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return BootstrapPrepareLocked(structure, initial_state);
}

Status Pipeline::BootstrapPrepareLocked(const std::vector<KV>& structure,
                                        const std::vector<KV>& initial_state) {
  if (bootstrapped_.load()) {
    return Status::FailedPrecondition("pipeline already bootstrapped");
  }
  TRACE_SPAN("pipeline.bootstrap", "pipeline=%s", name_.c_str());
  auto run = engine_->RunInitial(structure, initial_state);
  if (!run.ok()) return run.status();
  // Epoch 0 is now in flight: exchange rounds (if any) fold in the other
  // shards' contributions before the commit. Appends that raced ahead stay
  // in the log for the first delta epoch.
  inflight_ = true;
  inflight_watermark_ = 0;
  inflight_drain_ns_ = 0;
  return Status::OK();
}

StatusOr<Pipeline::RoundResult> Pipeline::RefreshRound(
    bool first, const std::vector<DeltaEdge>& remote_in) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return RefreshRoundLocked(first, remote_in);
}

StatusOr<Pipeline::RoundResult> Pipeline::RefreshRoundLocked(
    bool first, const std::vector<DeltaEdge>& remote_in) {
  TRACE_SPAN("epoch.round", "pipeline=%s first=%d remote_in=%zu",
             name_.c_str(), first ? 1 : 0, remote_in.size());
  RoundResult rr;
  if (first) {
    if (!bootstrapped_.load()) {
      return Status::FailedPrecondition("pipeline not bootstrapped");
    }
    if (dirty_.load()) {
      // A previous epoch died after possibly mutating the working state:
      // roll back before replaying.
      I2MR_RETURN_IF_ERROR(
          RestoreCommitted(committed_epoch(), committed_watermark()).status());
      dirty_.store(false);
    }
    inflight_ = true;
    inflight_watermark_ = committed_watermark();
    inflight_drain_ns_ = 0;
    staged_.reset();
  } else if (!inflight_) {
    return Status::FailedPrecondition("no coordinated epoch in flight");
  }

  // Only the first round drains: deltas appended while the barrier rounds
  // run belong to the next epoch (bounded epochs even under a firehose).
  // The drained batch is the engine's delta structure input (§3.3 delta
  // file), in log order; it stays in the log until the post-commit purge.
  std::vector<DeltaKV> deltas;
  if (first) {
    std::vector<SeqDelta> drained =
        log_->ReadRange(inflight_watermark_, UINT64_MAX);
    if (!drained.empty()) {
      // Deltas appended past this point are not in this epoch; their
      // max-lag clock restarts from (at latest) now, not from commit time.
      inflight_drain_ns_ = NowNanos();
      deltas.reserve(drained.size());
      for (auto& rec : drained) deltas.push_back(std::move(rec.delta));
      inflight_watermark_ = drained.back().seq;
      rr.deltas_drained = drained.size();
      if (SimulateCrash(committed_epoch() + 1, "drain")) {
        return Status::Aborted("simulated crash after drain");
      }
    }
  }

  size_t remote_changed = 0;
  if (!remote_in.empty()) {
    dirty_.store(true);  // the inbox diverges from the snapshot
    auto applied = engine_->ApplyRemoteEdges(remote_in);
    if (!applied.ok()) return applied.status();
    remote_changed = *applied;
  }

  if (!deltas.empty() || remote_changed > 0 ||
      engine_->HasPendingRemoteKeys()) {
    dirty_.store(true);  // the working state is about to diverge
    WallTimer refresh;
    // In memory only: the stage persists the working files once.
    auto run = engine_->Refresh(deltas);
    if (!run.ok()) return run.status();
    rr.refreshed = true;
    rr.refresh_ms = refresh.ElapsedMillis();
    rr.iterations = run->iterations.size();
    for (const auto& it : run->iterations) {
      rr.total_diff += it.total_diff;
      rr.map_ms += it.map_ms;
      rr.shuffle_ms += it.shuffle_ms;
      rr.sort_ms += it.sort_ms;
      rr.reduce_ms += it.reduce_ms;
      rr.merge_ms += it.merge_ms;
    }
    if (first && SimulateCrash(committed_epoch() + 1, "refresh")) {
      return Status::Aborted("simulated crash after refresh");
    }
  }
  rr.exports = engine_->TakeBoundaryExports();
  return rr;
}

Status Pipeline::StageEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (!inflight_) {
    return Status::FailedPrecondition("no coordinated epoch in flight");
  }
  if (bootstrapped_.load() && epoch <= committed_epoch()) {
    return Status::InvalidArgument("staged epoch must exceed the committed");
  }
  return StageEpochLocked(epoch, inflight_watermark_, inflight_drain_ns_);
}

Status Pipeline::FinalizeStagedEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return FinalizeStagedLocked();
}

Status Pipeline::CleanupCommitted() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return CleanupCommittedLocked();
}

void Pipeline::AbortCoordinated() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (inflight_ || staged_) dirty_.store(true);
  inflight_ = false;
  staged_.reset();
}

StatusOr<std::string> Pipeline::Lookup(const std::string& key) const {
  std::shared_ptr<const ResultStore> snap = epochs_.store();
  if (snap == nullptr) {
    return Status::FailedPrecondition("pipeline not bootstrapped");
  }
  const std::string* v = snap->Get(key);
  if (v == nullptr) return Status::NotFound("no result for key " + key);
  return *v;
}

EpochPin Pipeline::PinServing() const { return epochs_.Pin(); }

std::vector<KV> Pipeline::ServingSnapshot() const {
  std::shared_ptr<const ResultStore> snap = epochs_.store();
  return snap == nullptr ? std::vector<KV>{} : snap->Snapshot();
}

}  // namespace i2mr
