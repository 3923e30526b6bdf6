#include "replication/follower_replica.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/record_file.h"
#include "pipeline/delta_log.h"

namespace i2mr {
namespace {

constexpr const char* kCurrentFile = "CURRENT";
constexpr const char* kShipSuffix = ".ship";

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Sorted subdirectories of `dir` (ListFiles covers regular files only).
StatusOr<std::vector<std::string>> ListSubdirs(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> out;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_directory(ec)) out.push_back(it->path().string());
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(out.begin(), out.end());
  return out;
}

/// Copy `src` into `dst` (created fresh), returning the bytes copied.
StatusOr<uint64_t> CopyTreeCounted(const std::string& src,
                                   const std::string& dst) {
  I2MR_RETURN_IF_ERROR(ResetDir(dst));
  uint64_t bytes = 0;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(src, ec), end;
  if (ec) return Status::IOError("iterate " + src + ": " + ec.message());
  for (; it != end; it.increment(ec)) {
    if (ec) return Status::IOError("iterate " + src + ": " + ec.message());
    std::filesystem::path rel =
        std::filesystem::relative(it->path(), src, ec);
    if (ec) return Status::IOError("relative " + src + ": " + ec.message());
    std::string to = JoinPath(dst, rel.string());
    if (it->is_directory()) {
      I2MR_RETURN_IF_ERROR(CreateDirs(to));
    } else if (it->is_regular_file()) {
      // A real byte copy, not a hard link: the replica must survive loss
      // of the primary's disk, so shipped files never share inodes with
      // the source (and "shipped bytes" means what it says).
      I2MR_RETURN_IF_ERROR(CopyFile(it->path().string(), to));
      auto sz = FileSize(to);
      if (!sz.ok()) return sz.status();
      bytes += *sz;
    }
  }
  return bytes;
}

}  // namespace

FollowerReplica::FollowerReplica(std::string root, std::string pipeline_name,
                                 FollowerReplicaOptions options)
    : root_(std::move(root)),
      name_(std::move(pipeline_name)),
      options_(std::move(options)) {
  if (options_.metrics == nullptr) options_.metrics = MetricsRegistry::Default();
  metric_scope_ = ScopedMetricPrefix(
      options_.metrics, options_.metrics_prefix.empty()
                            ? "replica." + name_
                            : options_.metrics_prefix);
  shipped_bytes_ = metric_scope_.Get("shipped_bytes");
  applied_epochs_ = metric_scope_.Get("applied_epochs");
  lag_epochs_ = metric_scope_.GetGauge("lag_epochs");
  reads_served_ = metric_scope_.Get("reads_served");
}

std::string FollowerReplica::PipelineDir() const {
  return JoinPath(root_, "pipeline/" + name_);
}

std::string FollowerReplica::LogDir() const {
  return JoinPath(PipelineDir(), "log");
}

std::string FollowerReplica::EpochDir(uint64_t epoch) const {
  return JoinPath(PipelineDir(), Pipeline::EpochDirName(epoch));
}

std::string FollowerReplica::StageDir(uint64_t epoch) const {
  return EpochDir(epoch) + kShipSuffix;
}

void FollowerReplica::DropSlot(const std::string& slot) {
  if (Status st = RemoveAll(slot); !st.ok()) {
    LOG_WARN << "replica " << PipelineDir()
             << ": abandoned stage slot not removed: " << st.ToString();
  }
}

std::string FollowerReplica::CurrentPath() const {
  return JoinPath(PipelineDir(), kCurrentFile);
}

std::string FollowerReplica::GenPath() const {
  return JoinPath(PipelineDir(), "GEN");
}

Status FollowerReplica::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  I2MR_RETURN_IF_ERROR(CreateDirs(PipelineDir()));
  I2MR_RETURN_IF_ERROR(CreateDirs(LogDir()));
  // An interrupted ship is never authoritative: the slot is re-staged from
  // the primary on the next pass.
  auto entries = ListSubdirs(PipelineDir());
  if (!entries.ok()) return entries.status();
  for (const auto& e : *entries) {
    std::string base = Basename(e);
    if (base.size() > 5 &&
        base.compare(base.size() - 5, 5, kShipSuffix) == 0) {
      I2MR_RETURN_IF_ERROR(RemoveAll(e));
    }
  }
  staged_valid_ = false;
  staged_epoch_ = 0;
  staged_watermark_ = 0;
  ++open_gen_;

  // Self-heal twin segment files (raw `seg-X.dat` alongside its compressed
  // `seg-X.lzd` re-encoding): both cover the same seq span, and a promoted
  // pipeline's recovery scan would reject the pair as a sequence
  // regression. Keep the compressed form — the primary's retained one.
  auto log_files = ListFiles(LogDir());
  if (!log_files.ok()) return log_files.status();
  std::set<uint64_t> compressed_seqs;
  for (const auto& e : *log_files) {
    if (IsDeltaLogSegmentFile(e) && IsCompressedDeltaLogSegmentFile(e)) {
      compressed_seqs.insert(DeltaLogSegmentFirstSeq(e));
    }
  }
  for (const auto& e : *log_files) {
    if (IsDeltaLogSegmentFile(e) && !IsCompressedDeltaLogSegmentFile(e) &&
        compressed_seqs.count(DeltaLogSegmentFirstSeq(e)) > 0) {
      I2MR_RETURN_IF_ERROR(RemoveAll(e));
    }
  }

  // Recover the generation binding (absent file = generation 0, the
  // pre-resharding layout).
  generation_ = 0;
  if (FileExists(GenPath())) {
    auto gen = ReadFileToString(GenPath());
    if (!gen.ok()) return gen.status();
    generation_ = std::strtoull(gen->c_str(), nullptr, 10);
  }

  if (FileExists(CurrentPath())) {
    auto current = ReadFileToString(CurrentPath());
    if (!current.ok()) return current.status();
    std::string dir = JoinPath(PipelineDir(), *current);
    uint64_t epoch = 0, watermark = 0;
    I2MR_RETURN_IF_ERROR(Pipeline::ReadEpochManifest(dir, &epoch, &watermark));
    I2MR_RETURN_IF_ERROR(VerifyEpochDir(dir, epoch, watermark));
    auto store = ResultStore::Open(JoinPath(dir, "serving.dat"));
    if (!store.ok()) return store.status();
    applied_epoch_ = epoch;
    applied_watermark_ = watermark;
    store_ = std::make_shared<const ResultStore>(std::move(store.value()));
  }
  open_ = true;
  return Status::OK();
}

void FollowerReplica::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  open_ = false;
  // store_ stays: outstanding pins share it, and a Reopen re-reads disk.
}

bool FollowerReplica::open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

bool FollowerReplica::serving() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_ && store_ != nullptr;
}

Status FollowerReplica::VerifyEpochDir(const std::string& dir,
                                       uint64_t expected_epoch,
                                       uint64_t expected_watermark) const {
  uint64_t epoch = 0, watermark = 0;
  I2MR_RETURN_IF_ERROR(Pipeline::ReadEpochManifest(dir, &epoch, &watermark));
  if (epoch != expected_epoch || watermark != expected_watermark) {
    return Status::FailedPrecondition(
        "epoch dir " + dir + " manifest mismatch: holds (" +
        std::to_string(epoch) + ", " + std::to_string(watermark) +
        "), expected (" + std::to_string(expected_epoch) + ", " +
        std::to_string(expected_watermark) + ")");
  }
  // Same checks the primary's own crash recovery runs before restoring a
  // snapshot: CRC-scan every partition's record files, parse the serving
  // store. (MRBG segments are CRC-framed and validated by the index
  // rebuild scan when the store opens, exactly as on the primary.)
  int parts = 0;
  auto entries = ListSubdirs(dir);
  if (!entries.ok()) return entries.status();
  for (const auto& e : *entries) {
    if (Basename(e).rfind("part-", 0) != 0) continue;
    ++parts;
    auto structure_ok = ValidateRecordFile(JoinPath(e, "structure.dat"));
    if (!structure_ok.ok()) return structure_ok.status();
    auto state_ok = ValidateRecordFile(JoinPath(e, "state.dat"));
    if (!state_ok.ok()) return state_ok.status();
    if (FileExists(JoinPath(e, "remote.dat"))) {
      auto remote_ok = ValidateRecordFile(JoinPath(e, "remote.dat"));
      if (!remote_ok.ok()) return remote_ok.status();
    }
  }
  if (options_.num_partitions > 0 && parts != options_.num_partitions) {
    return Status::Corruption(
        "epoch dir " + dir + " has " + std::to_string(parts) +
        " partitions, expected " + std::to_string(options_.num_partitions));
  }
  auto store = ResultStore::Open(JoinPath(dir, "serving.dat"));
  if (!store.ok()) return store.status();
  return Status::OK();
}

Status FollowerReplica::StageEpoch(uint64_t epoch, uint64_t watermark,
                                   const std::string& src_dir,
                                   uint64_t* shipped_bytes) {
  TRACE_SPAN("replica.verify", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  // The tree copy + CRC scans below take seconds for a large epoch, and
  // PinServing (called by the routing layer under its own lock) waits on
  // mu_ — so the heavy work runs unlocked. Staging itself needs no mutual
  // exclusion: shipper-side calls are serialized by the shipper's pass
  // lock; mu_ only guards the bookkeeping reads and the final publish.
  uint64_t gen = 0;
  std::string stale_slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::FailedPrecondition("replica closed");
    if (store_ != nullptr && epoch <= applied_epoch_) return Status::OK();
    if (staged_valid_ && staged_epoch_ == epoch &&
        staged_watermark_ == watermark) {
      return Status::OK();  // already staged and verified
    }
    if (staged_valid_) {
      stale_slot = StageDir(staged_epoch_);
      staged_valid_ = false;
      staged_epoch_ = 0;
      staged_watermark_ = 0;
    }
    gen = open_gen_;
  }
  // Drop a stale slot for a different (epoch, watermark).
  if (!stale_slot.empty()) I2MR_RETURN_IF_ERROR(RemoveAll(stale_slot));

  std::string slot = StageDir(epoch);
  auto bytes = CopyTreeCounted(src_dir, slot);
  if (!bytes.ok()) {
    DropSlot(slot);
    return bytes.status();
  }
  Status verified = VerifyEpochDir(slot, epoch, watermark);
  if (!verified.ok()) {
    DropSlot(slot);
    return verified;
  }
  if (options_.durability == DurabilityMode::kPowerFailure) {
    Status synced = SyncDir(PipelineDir());
    if (!synced.ok()) {
      DropSlot(slot);
      return synced;
    }
  }
  bool published = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A Close()/Open() cycle while the copy ran already wiped in-flight
    // .ship slots; don't resurrect bookkeeping for a dir Open() deleted.
    if (open_ && open_gen_ == gen) {
      staged_valid_ = true;
      staged_epoch_ = epoch;
      staged_watermark_ = watermark;
      published = true;
    }
  }
  if (!published) {
    DropSlot(slot);
    return Status::FailedPrecondition("replica closed during staging");
  }
  shipped_bytes_->Add(static_cast<int64_t>(*bytes));
  if (shipped_bytes != nullptr) *shipped_bytes += *bytes;
  return Status::OK();
}

Status FollowerReplica::PromoteStaged(uint64_t epoch, uint64_t watermark) {
  TRACE_SPAN("replica.apply", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("replica closed");
  if (store_ != nullptr && epoch <= applied_epoch_) return Status::OK();
  if (!staged_valid_ || staged_epoch_ != epoch ||
      staged_watermark_ != watermark) {
    return Status::FailedPrecondition(
        "staged slot holds epoch " + std::to_string(staged_epoch_) +
        ", primary committed " + std::to_string(epoch));
  }
  const std::string slot = StageDir(epoch);
  const std::string final_dir = EpochDir(epoch);
  // A/B verify before the flip: the slot's manifest must still match what
  // the primary durably committed (defends against a barrier abort
  // recommitting the same epoch number with different contents).
  uint64_t got_epoch = 0, got_watermark = 0;
  I2MR_RETURN_IF_ERROR(
      Pipeline::ReadEpochManifest(slot, &got_epoch, &got_watermark));
  if (got_epoch != epoch || got_watermark != watermark) {
    return Status::FailedPrecondition("staged slot manifest mismatch");
  }
  if (FileExists(final_dir)) I2MR_RETURN_IF_ERROR(RemoveAll(final_dir));
  I2MR_RETURN_IF_ERROR(RenameFile(slot, final_dir));
  auto store = ResultStore::Open(JoinPath(final_dir, "serving.dat"));
  if (!store.ok()) return store.status();

  const bool sync = options_.durability == DurabilityMode::kPowerFailure;
  std::string current_tmp = CurrentPath() + ".tmp";
  I2MR_RETURN_IF_ERROR(WriteStringToFile(
      current_tmp, Pipeline::EpochDirName(epoch), sync));
  I2MR_RETURN_IF_ERROR(RenameFile(current_tmp, CurrentPath()));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(PipelineDir()));

  applied_epoch_ = epoch;
  applied_watermark_ = watermark;
  store_ = std::make_shared<const ResultStore>(std::move(store.value()));
  staged_valid_ = false;
  staged_epoch_ = 0;
  staged_watermark_ = 0;
  applied_epochs_->Increment();
  CollectOldEpochsLocked();
  return Status::OK();
}

Status FollowerReplica::DiscardStaged() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!staged_valid_) return Status::OK();
  Status st = RemoveAll(StageDir(staged_epoch_));
  staged_valid_ = false;
  staged_epoch_ = 0;
  staged_watermark_ = 0;
  return st;
}

Status FollowerReplica::EnsureGeneration(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return Status::FailedPrecondition("replica closed");
  if (generation_ == generation) return Status::OK();
  LOG_INFO << "replica " << PipelineDir() << ": primary moved from "
           << "generation " << generation_ << " to " << generation
           << "; discarding replicated state for re-sync";
  // Everything replicated under the old generation — applied epochs, the
  // staged slot, shipped log segments, CURRENT — was partitioned by a map
  // that no longer exists. Wipe the pipeline dir wholesale and restart
  // from nothing; the next ship passes re-seed segments and the epoch.
  // Pins taken before the bump keep their in-memory stores, as always.
  I2MR_RETURN_IF_ERROR(RemoveAll(PipelineDir()));
  I2MR_RETURN_IF_ERROR(CreateDirs(PipelineDir()));
  I2MR_RETURN_IF_ERROR(CreateDirs(LogDir()));
  staged_valid_ = false;
  staged_epoch_ = 0;
  staged_watermark_ = 0;
  applied_epoch_ = 0;
  applied_watermark_ = 0;
  purge_mark_ = 0;
  store_ = nullptr;
  ++open_gen_;  // invalidate any in-flight stage against the old layout
  const bool sync = options_.durability == DurabilityMode::kPowerFailure;
  std::string tmp = GenPath() + ".tmp";
  I2MR_RETURN_IF_ERROR(
      WriteStringToFile(tmp, std::to_string(generation), sync));
  I2MR_RETURN_IF_ERROR(RenameFile(tmp, GenPath()));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(PipelineDir()));
  generation_ = generation;
  return Status::OK();
}

uint64_t FollowerReplica::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

void FollowerReplica::CollectOldEpochsLocked() {
  auto entries = ListSubdirs(PipelineDir());
  if (!entries.ok()) return;
  for (const auto& e : *entries) {
    std::string base = Basename(e);
    if (base.rfind("epoch-", 0) != 0 || base.size() != 14) continue;
    uint64_t epoch = 0;
    if (std::sscanf(base.c_str(), "epoch-%08" PRIu64, &epoch) != 1) continue;
    if (epoch >= applied_epoch_) continue;
    {
      std::lock_guard<std::mutex> pin_lock(pin_mu_);
      if (pins_.count(epoch) > 0) continue;  // a reader still holds it
    }
    if (Status st = RemoveAll(e); !st.ok()) {
      LOG_WARN << "replica " << PipelineDir()
               << ": old epoch dir not reclaimed: " << st.ToString();
    }
  }
}

Status FollowerReplica::InstallSegment(const std::string& src_path,
                                       uint64_t* shipped_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::FailedPrecondition("replica closed");
  }
  std::string dst = JoinPath(LogDir(), Basename(src_path));
  auto src_size = FileSize(src_path);
  if (!src_size.ok()) return src_size.status();
  if (FileExists(dst)) {
    auto dst_size = FileSize(dst);
    if (dst_size.ok() && *dst_size == *src_size) return Status::OK();
  }
  std::string tmp = dst + ".tmp";
  I2MR_RETURN_IF_ERROR(CopyFile(src_path, tmp));
  I2MR_RETURN_IF_ERROR(RenameFile(tmp, dst));
  // Drop any twin holding the same seq span under the other encoding (raw
  // .dat vs compressed .lzd): recovery over a promoted root scans every
  // segment file, and a duplicated span reads as a sequence regression.
  uint64_t first_seq = DeltaLogSegmentFirstSeq(dst);
  auto entries = ListFiles(LogDir());
  if (entries.ok()) {
    for (const auto& e : *entries) {
      if (Basename(e) == Basename(dst)) continue;
      if (IsDeltaLogSegmentFile(e) &&
          DeltaLogSegmentFirstSeq(e) == first_seq) {
        I2MR_RETURN_IF_ERROR(RemoveAll(e));
      }
    }
  }
  if (options_.durability == DurabilityMode::kPowerFailure) {
    I2MR_RETURN_IF_ERROR(SyncFile(dst));
    I2MR_RETURN_IF_ERROR(SyncDir(LogDir()));
  }
  shipped_bytes_->Add(static_cast<int64_t>(*src_size));
  if (shipped_bytes != nullptr) *shipped_bytes += *src_size;
  return Status::OK();
}

std::set<std::string> FollowerReplica::SegmentBasenames() const {
  std::set<std::string> out;
  auto entries = ListFiles(LogDir());
  if (!entries.ok()) return out;
  for (const auto& e : *entries) {
    if (IsDeltaLogSegmentFile(e)) out.insert(Basename(e));
  }
  return out;
}

std::set<uint64_t> FollowerReplica::SegmentFirstSeqs() const {
  std::set<uint64_t> out;
  auto entries = ListFiles(LogDir());
  if (!entries.ok()) return out;
  for (const auto& e : *entries) {
    if (IsDeltaLogSegmentFile(e)) out.insert(DeltaLogSegmentFirstSeq(e));
  }
  return out;
}

Status FollowerReplica::PurgeShippedBelow(uint64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || watermark == 0) return Status::OK();
  if (watermark <= purge_mark_) return Status::OK();
  // The mark must land before any file disappears (same ordering as the
  // primary's purge): a promoted pipeline's recovery uses it to drop
  // already-consumed records still present in retained segments.
  I2MR_RETURN_IF_ERROR(WriteDeltaLogPurgeMark(
      LogDir(), watermark,
      options_.durability == DurabilityMode::kPowerFailure));
  purge_mark_ = watermark;

  auto entries = ListFiles(LogDir());
  if (!entries.ok()) return entries.status();
  std::vector<std::string> segs;
  for (const auto& e : *entries) {
    if (IsDeltaLogSegmentFile(e)) segs.push_back(e);
  }
  // A segment holds records strictly below the next segment's first seq,
  // so seg i is fully consumed when first_seq(i+1) <= watermark + 1. The
  // last segment is always retained (its upper bound is unknown without a
  // scan, and recovery drops its consumed records anyway).
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    if (DeltaLogSegmentFirstSeq(segs[i + 1]) <= watermark + 1) {
      I2MR_RETURN_IF_ERROR(RemoveAll(segs[i]));
    }
  }
  return Status::OK();
}

EpochPin FollowerReplica::PinServing() const {
  auto state = std::make_shared<EpochPin::State>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_ || store_ == nullptr) return EpochPin();
    state->epoch = applied_epoch_;
    state->watermark = applied_watermark_;
    state->store = store_;
    state->dir = EpochDir(applied_epoch_);
    std::lock_guard<std::mutex> pin_lock(pin_mu_);
    ++pins_[state->epoch];
  }
  state->unpin = [this](uint64_t epoch) { Unpin(epoch); };
  return EpochPin(std::move(state));
}

void FollowerReplica::Unpin(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(pin_mu_);
  auto it = pins_.find(epoch);
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

Status FollowerReplica::VerifyCurrent() const {
  uint64_t epoch = 0, watermark = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (store_ == nullptr) {
      return Status::FailedPrecondition("replica has no applied epoch");
    }
    epoch = applied_epoch_;
    watermark = applied_watermark_;
  }
  return VerifyEpochDir(EpochDir(epoch), epoch, watermark);
}

uint64_t FollowerReplica::applied_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_epoch_;
}

uint64_t FollowerReplica::applied_watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_watermark_;
}

uint64_t FollowerReplica::staged_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_epoch_;
}

void FollowerReplica::SetLagEpochs(uint64_t lag) {
  lag_epochs_->Set(static_cast<int64_t>(lag));
}

void FollowerReplica::RetireMetrics() { metric_scope_.Reset(); }

}  // namespace i2mr
