#include "replication/follower_replica.h"

#include <filesystem>
#include <optional>
#include <vector>

#include "common/codec.h"
#include "common/logging.h"
#include "common/trace.h"
#include "io/env.h"
#include "pipeline/delta_log.h"

namespace i2mr {
namespace {

/// Copy `src` into the empty dir `dst`, returning the bytes copied.
StatusOr<uint64_t> CopyTreeCounted(const std::string& src,
                                   const std::string& dst, bool sync) {
  uint64_t bytes = 0;
  std::vector<std::string> dirs;  // fsync'd once their entries landed
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
      if (sync) dirs.push_back(to);
    } else if (it->is_regular_file()) {
      // A real byte copy, not a hard link: the replica must survive loss
      // of the primary's disk, so shipped files never share inodes with
      // the source (and "shipped bytes" means what it says).
      I2MR_RETURN_IF_ERROR(CopyFile(it->path().string(), to));
      if (sync) I2MR_RETURN_IF_ERROR(SyncFile(to));
      auto sz = FileSize(to);
      if (!sz.ok()) return sz.status();
      bytes += *sz;
    }
  }
  for (const auto& dir : dirs) I2MR_RETURN_IF_ERROR(SyncDir(dir));
  return bytes;
}

}  // namespace

FollowerReplica::FollowerReplica(std::string root, std::string pipeline_name,
                                 FollowerReplicaOptions options)
    : root_(std::move(root)),
      name_(std::move(pipeline_name)),
      options_(std::move(options)),
      epochs_(JoinPath(root_, "pipeline/" + name_),
              options_.durability == DurabilityMode::kPowerFailure) {
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

std::string FollowerReplica::LogDir() const {
  return JoinPath(PipelineDir(), "log");
}

void FollowerReplica::DropStaged(uint64_t epoch) {
  for (const std::string& dir :
       {epochs_.SlotDir(epoch), epochs_.EpochDir(epoch)}) {
    if (Status st = RemoveAll(dir); !st.ok()) {
      LOG_WARN << "replica " << PipelineDir()
               << ": abandoned staged epoch not removed: " << st.ToString();
    }
  }
}

std::string FollowerReplica::GenPath() const {
  return JoinPath(PipelineDir(), "GEN");
}

Status FollowerReplica::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  I2MR_RETURN_IF_ERROR(CreateDirs(PipelineDir()));
  I2MR_RETURN_IF_ERROR(CreateDirs(LogDir()));
  staged_.reset();
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
  // pre-resharding layout): [u64 generation] ‖ crc32.
  generation_ = 0;
  if (FileExists(GenPath())) {
    auto payload = ReadCrcRecord(GenPath(), 8);
    if (!payload.ok()) return payload.status();
    generation_ = DecodeFixed64(payload->data());
  }

  auto committed = epochs_.Recover();
  if (!committed.ok()) return committed.status();
  if (*committed) {
    const uint64_t epoch = (*committed)->epoch;
    const uint64_t watermark = (*committed)->watermark;
    auto store = EpochStore::Verify(epochs_.EpochDir(epoch), epoch, watermark,
                                    options_.num_partitions);
    if (!store.ok()) return store.status();
    epochs_.Publish(epoch, watermark,
                    std::make_shared<const ResultStore>(std::move(*store)));
  }
  // An interrupted ship is never authoritative: its slot (or sealed but
  // unpromoted dir) is re-staged from the primary on the next pass.
  I2MR_RETURN_IF_ERROR(epochs_.Collect());
  open_ = true;
  return Status::OK();
}

void FollowerReplica::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  open_ = false;
  // The published store stays: outstanding pins share it, and a reopen
  // re-reads disk.
}

bool FollowerReplica::open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

bool FollowerReplica::serving() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_ && epochs_.store() != nullptr;
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
  std::optional<uint64_t> stale;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::FailedPrecondition("replica closed");
    if (epochs_.store() != nullptr && epoch <= epochs_.epoch()) {
      return Status::OK();
    }
    if (staged_ && staged_->epoch == epoch && staged_->watermark == watermark) {
      return Status::OK();  // already staged and verified
    }
    if (staged_) stale = staged_->epoch;
    staged_.reset();
    gen = open_gen_;
  }
  // Drop a stale staged epoch for a different (epoch, watermark).
  if (stale) DropStaged(*stale);

  // The one staging discipline: fill the slot, verify it, seal it.
  const bool sync = options_.durability == DurabilityMode::kPowerFailure;
  StatusOr<uint64_t> bytes = epochs_.OpenSlot(epoch);
  if (bytes.ok()) {
    bytes = CopyTreeCounted(src_dir, epochs_.SlotDir(epoch), sync);
  }
  StatusOr<ResultStore> verified =
      bytes.ok() ? EpochStore::Verify(epochs_.SlotDir(epoch), epoch, watermark,
                                      options_.num_partitions)
                 : StatusOr<ResultStore>(bytes.status());
  Status sealed = verified.ok() ? epochs_.Seal(epoch) : verified.status();
  if (!sealed.ok()) {
    DropStaged(epoch);
    return sealed;
  }
  bool published = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A Close()/Open() cycle while the copy ran already collected
    // in-flight slots; don't resurrect bookkeeping for a dir Open() deleted.
    if (open_ && open_gen_ == gen) {
      staged_ = Staged{
          epoch, watermark,
          std::make_shared<const ResultStore>(std::move(*verified))};
      published = true;
    }
  }
  if (!published) {
    DropStaged(epoch);
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
  if (epochs_.store() != nullptr && epoch <= epochs_.epoch()) {
    return Status::OK();
  }
  if (!staged_ || staged_->epoch != epoch || staged_->watermark != watermark) {
    return Status::FailedPrecondition(
        "staged slot holds epoch " +
        std::to_string(staged_ ? staged_->epoch : 0) +
        ", primary committed " + std::to_string(epoch));
  }
  // A/B verify before the flip: the staged manifest must still match what
  // the primary durably committed (defends against a barrier abort
  // recommitting the same epoch number with different contents).
  uint64_t got_epoch = 0, got_watermark = 0;
  I2MR_RETURN_IF_ERROR(EpochStore::ReadManifest(
      epochs_.EpochDir(epoch), &got_epoch, &got_watermark));
  if (got_epoch != epoch || got_watermark != watermark) {
    return Status::FailedPrecondition("staged slot manifest mismatch");
  }
  I2MR_RETURN_IF_ERROR(epochs_.Flip(epoch));
  epochs_.Publish(epoch, watermark, std::move(staged_->store));
  staged_.reset();
  applied_epochs_->Increment();
  if (Status st = epochs_.Collect(); !st.ok()) {
    LOG_WARN << "replica " << PipelineDir()
             << ": old epoch dirs not reclaimed: " << st.ToString();
  }
  return Status::OK();
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
  staged_.reset();
  epochs_.Publish(0, 0, nullptr);
  I2MR_RETURN_IF_ERROR(epochs_.Recover().status());  // nothing committed
  purge_mark_ = 0;
  ++open_gen_;  // invalidate any in-flight stage against the old layout
  std::string payload;
  PutFixed64(&payload, generation);
  I2MR_RETURN_IF_ERROR(ReplaceFileDurably(
      GenPath(), EncodeCrcRecord(payload),
      options_.durability == DurabilityMode::kPowerFailure));
  generation_ = generation;
  return Status::OK();
}

uint64_t FollowerReplica::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
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
  std::lock_guard<std::mutex> lock(mu_);
  return open_ ? epochs_.Pin() : EpochPin();
}

void FollowerReplica::SetLagEpochs(uint64_t lag) {
  lag_epochs_->Set(static_cast<int64_t>(lag));
}

void FollowerReplica::RetireMetrics() { metric_scope_.Reset(); }

}  // namespace i2mr
