#include "pipeline/delta_log.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/codec.h"
#include "common/hash.h"
#include "common/logging.h"
#include "io/compress.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/record_file.h"

namespace i2mr {
namespace {

constexpr uint32_t kLogMagic = 0x49444c47;  // "IDLG"
constexpr size_t kFrameHeader = 8;          // magic + payload_len
constexpr size_t kFrameOverhead = kFrameHeader + 4;  // + crc
constexpr size_t kPayloadOverhead = 8 + 1 + 4 + 4;   // seq + op + 2 lengths
constexpr const char* kPurgeFile = "PURGE";
constexpr const char* kArchiveDir = "archive";

// Parses one frame starting at data[pos]. Returns OK and advances *pos past
// the frame, NotFound at a clean end (pos == size), Corruption otherwise.
Status ParseFrame(std::string_view data, size_t* pos, SeqDelta* out) {
  if (*pos == data.size()) return Status::NotFound("end of log");
  if (data.size() - *pos < kFrameOverhead) {
    return Status::Corruption("torn frame header");
  }
  Decoder head(data.data() + *pos, kFrameHeader);
  uint32_t magic = 0, payload_len = 0;
  head.GetFixed32(&magic);
  head.GetFixed32(&payload_len);
  if (magic != kLogMagic) return Status::Corruption("bad log magic");
  if (payload_len > kMaxRecordFieldLen ||
      data.size() - *pos - kFrameOverhead < payload_len) {
    return Status::Corruption("torn frame payload");
  }
  std::string_view payload(data.data() + *pos + kFrameHeader, payload_len);
  uint32_t crc =
      DecodeFixed32(data.data() + *pos + kFrameHeader + payload_len);
  if (crc != Crc32(payload)) return Status::Corruption("log crc mismatch");

  Decoder body(payload);
  uint8_t op = 0;
  if (!body.GetFixed64(&out->seq) || !body.GetByte(&op) ||
      !body.GetLengthPrefixed(&out->delta.key) ||
      !body.GetLengthPrefixed(&out->delta.value) || !body.done()) {
    return Status::Corruption("bad log payload");
  }
  if (op != static_cast<uint8_t>(DeltaOp::kInsert) &&
      op != static_cast<uint8_t>(DeltaOp::kDelete)) {
    return Status::Corruption("bad log op byte");
  }
  out->delta.op = static_cast<DeltaOp>(op);
  *pos += kFrameOverhead + payload_len;
  return Status::OK();
}

// PURGE: [u64 watermark] ‖ crc32.
Status ReadPurgeMark(const std::string& path, uint64_t* watermark) {
  auto payload = ReadCrcRecord(path, 8);
  if (!payload.ok()) return payload.status();
  *watermark = DecodeFixed64(payload->data());
  return Status::OK();
}

bool IsCompressedSegmentPath(const std::string& path) {
  std::string base = Basename(path);
  return base.size() == 28 && base.rfind("seg-", 0) == 0 &&
         base.compare(base.size() - 4, 4, ".lzd") == 0;
}

bool IsSegmentPath(const std::string& path) {
  std::string base = Basename(path);
  return (base.size() == 28 && base.rfind("seg-", 0) == 0 &&
          base.compare(base.size() - 4, 4, ".dat") == 0) ||
         IsCompressedSegmentPath(path);
}

}  // namespace

bool IsDeltaLogSegmentFile(const std::string& path) {
  return IsSegmentPath(path);
}

bool IsCompressedDeltaLogSegmentFile(const std::string& path) {
  return IsCompressedSegmentPath(path);
}

uint64_t DeltaLogSegmentFirstSeq(const std::string& path) {
  if (!IsSegmentPath(path)) return 0;
  std::string base = Basename(path);
  uint64_t seq = 0;
  for (size_t i = 4; i < 24; ++i) {
    if (base[i] < '0' || base[i] > '9') return 0;
    seq = seq * 10 + (base[i] - '0');
  }
  return seq;
}

Status WriteDeltaLogPurgeMark(const std::string& dir, uint64_t watermark,
                              bool sync) {
  std::string payload;
  PutFixed64(&payload, watermark);
  return ReplaceFileDurably(JoinPath(dir, kPurgeFile),
                            EncodeCrcRecord(payload), sync);
}

void EncodeLogRecord(uint64_t seq, const DeltaKV& delta, std::string* out) {
  std::string payload;
  PutFixed64(&payload, seq);
  payload.push_back(DeltaOpChar(delta.op));
  PutLengthPrefixed(&payload, delta.key);
  PutLengthPrefixed(&payload, delta.value);
  PutFixed32(out, kLogMagic);
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  PutFixed32(out, Crc32(payload));
}

std::string DeltaLogSegmentName(uint64_t first_seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%020" PRIu64 ".dat", first_seq);
  return buf;
}

StatusOr<std::unique_ptr<DeltaLog>> DeltaLog::Open(const std::string& dir,
                                                   DeltaLogOptions options) {
  I2MR_RETURN_IF_ERROR(CreateDirs(dir));
  std::unique_ptr<DeltaLog> log(new DeltaLog(dir, std::move(options)));
  I2MR_RETURN_IF_ERROR(log->Recover());
  return log;
}

DeltaLog::~DeltaLog() { (void)Close(); }

Status DeltaLog::ScanSegment(const std::string& path, bool is_last,
                             uint64_t prev_max, uint64_t* last_seq,
                             uint64_t* nrecords) {
  // Three read paths for one parse loop: compressed archives are inflated
  // into a buffer, large raw segments are memory-mapped (the follower
  // catch-up / big-backlog recovery case), small ones go through the
  // existing buffered read. Only a raw last segment may be truncated.
  const bool compressed = IsCompressedSegmentPath(path);
  std::string owned;
  std::unique_ptr<MmapFile> mapped;
  std::string_view data;
  if (compressed) {
    auto raw = ReadFileToString(path);
    if (!raw.ok()) return raw.status();
    Status inflated = LzDecompress(*raw, &owned);
    if (!inflated.ok()) {
      return Status::Corruption("compressed segment " + path + ": " +
                                inflated.message());
    }
    data = owned;
  } else {
    auto size = FileSize(path);
    if (!size.ok()) return size.status();
    if (options_.mmap_scan_bytes > 0 && *size >= options_.mmap_scan_bytes) {
      auto m = MmapFile::Open(path);
      if (!m.ok()) return m.status();
      mapped = std::move(m.value());
      data = mapped->data();
    } else {
      auto raw = ReadFileToString(path);
      if (!raw.ok()) return raw.status();
      owned = std::move(raw.value());
      data = owned;
    }
  }
  size_t pos = 0;
  *last_seq = 0;
  *nrecords = 0;
  for (;;) {
    SeqDelta rec;
    Status st = ParseFrame(data, &pos, &rec);
    if (st.IsNotFound()) break;
    if (st.IsCorruption()) {
      if (!is_last || compressed) {
        // Sealed segments are immutable after rotation; mid-log damage
        // cannot be a torn append and silently dropping it would lose
        // acknowledged records that later segments build on.
        return Status::Corruption("sealed segment " + path + ": " +
                                  st.message());
      }
      // Torn tail (crash mid-append) or garbled bytes on the active
      // segment: keep the valid prefix, truncate the rest so the next
      // append starts clean.
      recovery_.discarded_bytes += data.size() - pos;
      LOG_WARN << "delta log " << path << ": discarding "
               << data.size() - pos << " tail bytes (" << st.message()
               << ")";
      mapped.reset();  // release the mapping before shrinking the file
      data = std::string_view();
      if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
        return Status::IOError("truncate " + path);
      }
      break;
    }
    I2MR_RETURN_IF_ERROR(st);
    // Sequence numbers must be strictly increasing across the whole log; a
    // regression means the files were tampered with or mis-assembled.
    if (rec.seq <= std::max(prev_max, *last_seq)) {
      return Status::Corruption("log sequence regression in " + path);
    }
    *last_seq = rec.seq;
    ++*nrecords;
    // Records at or below the durable purge mark were consumed by a
    // committed epoch; they stay on disk until their segment retires but
    // never re-enter the index.
    if (rec.seq > purge_watermark_) records_.push_back(std::move(rec));
  }
  recovery_.valid_bytes += pos;
  return Status::OK();
}

Status DeltaLog::Recover() {
  // A half-written PURGE mark from crashed maintenance is never
  // authoritative.
  if (FileExists(JoinPath(dir_, std::string(kPurgeFile) + ".tmp"))) {
    I2MR_RETURN_IF_ERROR(
        RemoveAll(JoinPath(dir_, std::string(kPurgeFile) + ".tmp")));
  }
  if (FileExists(JoinPath(dir_, kPurgeFile))) {
    I2MR_RETURN_IF_ERROR(
        ReadPurgeMark(JoinPath(dir_, kPurgeFile), &purge_watermark_));
  }

  auto files = ListFiles(dir_);
  if (!files.ok()) return files.status();
  std::vector<std::string> segs;
  for (const auto& f : *files) {
    if (IsSegmentPath(f)) segs.push_back(f);  // ListFiles returns sorted
  }

  uint64_t max_seq = 0;
  std::vector<std::string> retire;  // fully consumed: finish the purge
  for (size_t i = 0; i < segs.size(); ++i) {
    uint64_t seg_last = 0, seg_records = 0;
    I2MR_RETURN_IF_ERROR(
        ScanSegment(segs[i], /*is_last=*/i + 1 == segs.size(), max_seq,
                    &seg_last, &seg_records));
    ++recovery_.segments;
    max_seq = std::max(max_seq, seg_last);
    bool consumed = seg_records > 0 && seg_last <= purge_watermark_;
    bool empty_sealed = seg_records == 0 && i + 1 < segs.size();
    // Only a raw file can take appends: a compressed segment at the tail
    // (a follower's shipped archive copy) stays sealed and a fresh active
    // segment is opened past it.
    bool can_be_active =
        i + 1 == segs.size() && !IsCompressedSegmentPath(segs[i]);
    if (consumed || empty_sealed) {
      // A crash between the PURGE mark landing and the unlink leaves the
      // consumed segment behind; retire it now, completing the purge.
      retire.push_back(segs[i]);
    } else if (can_be_active) {
      active_path_ = segs[i];
      active_last_seq_ = seg_last;
      active_records_ = seg_records;
    } else {
      sealed_.push_back(SegmentInfo{segs[i], seg_last, seg_records});
    }
  }
  recovery_.records = records_.size();
  next_seq_ = std::max(max_seq, purge_watermark_) + 1;

  for (const auto& path : retire) {
    I2MR_RETURN_IF_ERROR(RetireSegmentFile(path));
  }

  if (active_path_.empty()) {
    active_path_ = JoinPath(dir_, DeltaLogSegmentName(next_seq_));
    active_last_seq_ = 0;
    active_records_ = 0;
  }
  auto f = WritableFile::Create(active_path_, /*append=*/true);
  if (!f.ok()) return f.status();
  file_ = std::move(f.value());
  if (options_.durability == DurabilityMode::kPowerFailure) {
    // The active segment's directory entry (and any retirements above)
    // must survive power loss before appends are acknowledged against it.
    I2MR_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return Status::OK();
}

void DeltaLog::EnsureNextSeqAfter(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_seq_ <= seq) next_seq_ = seq + 1;
}

bool DeltaLog::SimulateCrashLocked(const char* stage) {
  if (!fault::FaultInjector::Armed() ||
      !fault::FaultInjector::Instance()->AtCrashPoint(
          std::string("delta_log/") + stage)) {
    return false;
  }
  LOG_WARN << "delta log " << dir_ << ": simulated crash at stage '" << stage
           << "'";
  if (file_ != nullptr) {
    (void)file_->Close();  // "process died": the file state is irrelevant
    file_.reset();         // refuse further appends until reopen
  }
  return true;
}

Status DeltaLog::RotateLocked() {
  if (options_.durability == DurabilityMode::kPowerFailure) {
    I2MR_RETURN_IF_ERROR(file_->Sync());
  }
  Status sealed = file_->Close();
  file_.reset();
  if (!sealed.ok()) return sealed;
  sealed_.push_back(
      SegmentInfo{active_path_, active_last_seq_, active_records_});
  if (seal_listener_) {
    // Under mu_ by contract (see SetSealListener): the shipper's handler
    // only flags work and wakes its thread.
    seal_listener_(active_path_, active_last_seq_);
  }

  if (SimulateCrashLocked("rotate")) {
    return Status::Aborted("simulated crash between seal and new segment");
  }

  std::string new_path = JoinPath(dir_, DeltaLogSegmentName(next_seq_));
  auto f = WritableFile::Create(new_path);
  Status created = f.ok() ? Status::OK() : f.status();
  if (created.ok() && options_.durability == DurabilityMode::kPowerFailure) {
    created = SyncDir(dir_);
  }
  if (!created.ok()) {
    // Un-seal: the new segment can't exist (e.g. ENOSPC), so reopen the
    // old active segment for append instead of leaving the log dead. The
    // seal notification already sent is a spurious wakeup, nothing more —
    // the shipper re-derives the sealed list under mu_.
    sealed_.pop_back();
    if (Status st = RemoveAll(new_path); !st.ok()) {
      LOG_WARN << "delta log " << dir_
               << ": stray rotation segment left behind: " << st.ToString();
    }
    auto reopened = WritableFile::Create(active_path_, /*append=*/true);
    if (reopened.ok()) {
      file_ = std::move(reopened.value());
    } else {
      LOG_WARN << "delta log " << dir_ << ": could not reopen "
               << active_path_ << " after failed rotation; log closed: "
               << reopened.status().ToString();
    }
    return created;
  }
  active_path_ = std::move(new_path);
  active_last_seq_ = 0;
  active_records_ = 0;
  file_ = std::move(f.value());
  return Status::OK();
}

Status DeltaLog::RollbackLocked(uint64_t file_offset, size_t record_count,
                                uint64_t next_seq, uint64_t active_last_seq,
                                uint64_t active_records) {
  // Undo a partially applied append group: truncate the file back to the
  // pre-group offset and drop the in-memory records, so a failed call
  // leaves nothing behind that a later drain could apply (the caller was
  // told the whole group failed and may retry it).
  records_.resize(record_count);
  next_seq_ = next_seq;
  active_last_seq_ = active_last_seq;
  active_records_ = active_records;
  file_.reset();  // close before truncating under the handle
  if (::truncate(active_path_.c_str(), static_cast<off_t>(file_offset)) != 0) {
    return Status::IOError("rollback truncate " + active_path_);
  }
  auto f = WritableFile::Create(active_path_, /*append=*/true);
  if (!f.ok()) return f.status();
  file_ = std::move(f.value());
  return Status::OK();
}

StatusOr<uint64_t> DeltaLog::Append(const DeltaKV& delta) {
  return AppendBatch({delta});
}

StatusOr<uint64_t> DeltaLog::AppendBatch(const std::vector<DeltaKV>& deltas) {
  // All-or-nothing: validate every record before queueing any, so a bad
  // record mid-batch can't leave a durable partial batch behind a rejected
  // return status (and can't fail an innocent group-mate's batch). The
  // bound mirrors ParseFrame's, so nothing we acknowledge is later
  // rejected as corrupt by the recovery scan.
  for (const auto& d : deltas) {
    if (d.key.size() + d.value.size() + kPayloadOverhead > kMaxRecordFieldLen) {
      return Status::InvalidArgument("delta record exceeds frame length limit");
    }
  }

  Writer w;
  w.deltas = &deltas;
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  // Park until a leader completed our group, or we reached the front and
  // lead one ourselves.
  while (!w.done && &w != writers_.front()) cv_.wait(lock);
  if (!w.done) CommitGroupLocked(lock);
  if (!w.status.ok()) return w.status;
  return w.last_seq;
}

void DeltaLog::CommitGroupLocked(std::unique_lock<std::mutex>& lock) {
  // Absorb every writer queued right now into one group. Writers arriving
  // while our I/O runs enqueue behind the group and form the next one.
  std::vector<Writer*> group(writers_.begin(), writers_.end());

  Status st;
  std::vector<SeqDelta> staged;  // records to publish on success
  const uint64_t start_offset = file_ == nullptr ? 0 : file_->offset();
  const uint64_t start_next_seq = next_seq_;
  if (file_ == nullptr) {
    st = Status::FailedPrecondition("log closed");
  } else {
    // Stage frames + sequence numbers under the mutex (cheap, in-memory)...
    std::string frames;
    for (Writer* writer : group) {
      for (const auto& d : *writer->deltas) {
        writer->last_seq = next_seq_++;
        EncodeLogRecord(writer->last_seq, d, &frames);
        staged.push_back(SeqDelta{writer->last_seq, d});
      }
      if (writer->deltas->empty()) writer->last_seq = next_seq_ - 1;
    }
    // ...then write + flush/fsync them with the mutex released: ONE
    // device round-trip for the whole group. Only the leader touches
    // file_ here — followers are parked, new writers queue behind the
    // group, and PurgeThrough/Close wait out io_in_progress_.
    if (!staged.empty()) {
      WritableFile* file = file_.get();
      io_in_progress_ = true;
      lock.unlock();
      st = file->Append(frames);
      if (st.ok()) {
        st = options_.durability == DurabilityMode::kPowerFailure
                 ? file->Sync()
                 : file->Flush();
      }
      lock.lock();
      io_in_progress_ = false;
      ++sync_calls_;
    }
  }

  if (!st.ok() && start_next_seq != next_seq_) {
    // Roll the whole group back (truncate + restore the seq counter) so
    // every member's error return is truthful: nothing it was told failed
    // can later surface in a drain. records_ was never touched — staged
    // records publish only on success — so readers never saw them.
    Status rb = RollbackLocked(start_offset, records_.size(), start_next_seq,
                               active_last_seq_, active_records_);
    if (!rb.ok()) {
      LOG_WARN << "delta log " << active_path_
               << ": rollback after failed append also failed ("
               << rb.ToString() << "); log closed";
    }
  }
  if (st.ok() && !staged.empty()) {
    active_last_seq_ = staged.back().seq;
    active_records_ += staged.size();
    records_.insert(records_.end(), staged.begin(), staged.end());
    if (file_->offset() >= options_.segment_bytes) {
      Status rotated = RotateLocked();
      if (rotated.code() == Status::Code::kAborted) {
        // Simulated process death at the rotation boundary: nothing
        // observes these return values (the "process" is gone).
        st = rotated;
      } else if (!rotated.ok()) {
        // The group IS durable: reporting a rotation failure as an append
        // failure would invite a retry that double-applies it. Absorb the
        // error — a wedged rotation either left the old active segment
        // usable (retried on the next batch) or closed the log, surfacing
        // as FailedPrecondition on the next append.
        LOG_WARN << "delta log " << dir_ << ": rotation failed ("
                 << rotated.ToString() << "); batch already durable";
      }
    }
  }

  for (Writer* writer : group) {
    writer->status = st;
    writer->done = true;
  }
  writers_.erase(writers_.begin(), writers_.begin() + group.size());
  // Wake the whole group plus the next group's leader (and anyone waiting
  // on io_in_progress_).
  cv_.notify_all();
}

std::vector<SeqDelta> DeltaLog::ReadRange(uint64_t after, uint64_t upto) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto lo = std::upper_bound(
      records_.begin(), records_.end(), after,
      [](uint64_t s, const SeqDelta& r) { return s < r.seq; });
  auto hi = std::upper_bound(
      records_.begin(), records_.end(), upto,
      [](uint64_t s, const SeqDelta& r) { return s < r.seq; });
  return std::vector<SeqDelta>(lo, hi);
}

Status DeltaLog::WritePurgeMarkLocked() {
  return WriteDeltaLogPurgeMark(
      dir_, purge_watermark_,
      options_.durability == DurabilityMode::kPowerFailure);
}

Status DeltaLog::RetireSegmentFile(const std::string& path) {
  if (!options_.archive_purged) return RemoveAll(path);
  std::string archive = JoinPath(dir_, kArchiveDir);
  I2MR_RETURN_IF_ERROR(CreateDirs(archive));
  std::string base = Basename(path);
  if (!options_.compress_archive || IsCompressedSegmentPath(path)) {
    return RenameFile(path, JoinPath(archive, base));
  }
  // Compact + compress: keep only the segment's valid record prefix (a
  // sealed file can still carry slack past a mid-write crash that a later
  // truncation never touched) and store it LZ-compressed. The write is
  // tmp + rename so a crash can't leave a half-written archive a shipper
  // would try to read.
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  size_t valid_end = 0;
  for (;;) {
    SeqDelta rec;
    if (!ParseFrame(*raw, &valid_end, &rec).ok()) break;
  }
  std::string compressed;
  LzCompress(std::string_view(raw->data(), valid_end), &compressed);
  std::string dst =
      JoinPath(archive, base.substr(0, base.size() - 4) + ".lzd");
  I2MR_RETURN_IF_ERROR(ReplaceFileDurably(
      dst, compressed, options_.durability == DurabilityMode::kPowerFailure));
  return RemoveAll(path);
}

Status DeltaLog::PurgeThrough(uint64_t watermark) {
  // Everything O(live) or slower happens inside this block, but it is all
  // in-memory + an O(1) mark write; the per-segment file retirement below
  // runs outside the mutex so concurrent appends never stall on it.
  std::vector<std::string> consumed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A group-commit leader may hold the active segment with mu_ released;
    // sealing it out from under the leader's write would tear the group.
    while (io_in_progress_) cv_.wait(lock);
    if (watermark <= purge_watermark_) return Status::OK();
    if (records_.empty() || records_.front().seq > watermark) {
      return Status::OK();
    }
    auto keep = std::upper_bound(
        records_.begin(), records_.end(), watermark,
        [](uint64_t s, const SeqDelta& r) { return s < r.seq; });
    records_.erase(records_.begin(), keep);

    // A fully consumed active segment would otherwise pin its bytes until
    // organic rotation; seal it now so it can retire with the rest.
    if (file_ != nullptr && active_records_ > 0 &&
        active_last_seq_ <= watermark) {
      I2MR_RETURN_IF_ERROR(RotateLocked());
    }
    size_t n = 0;
    while (n < sealed_.size() && sealed_[n].last_seq <= watermark) ++n;
    for (size_t i = 0; i < n; ++i) consumed.push_back(sealed_[i].path);
    sealed_.erase(sealed_.begin(), sealed_.begin() + n);

    // The mark must be durable before any file disappears: recovery uses
    // it both to drop consumed records still on disk and to finish an
    // interrupted retirement.
    purge_watermark_ = watermark;
    I2MR_RETURN_IF_ERROR(WritePurgeMarkLocked());

    if (SimulateCrashLocked("purge-marked")) {
      return Status::Aborted("simulated crash before segment retirement");
    }
  }

  for (const auto& path : consumed) {
    I2MR_RETURN_IF_ERROR(RetireSegmentFile(path));
  }
  return Status::OK();
}

uint64_t DeltaLog::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

uint64_t DeltaLog::live_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

uint64_t DeltaLog::segment_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.size() + 1;
}

uint64_t DeltaLog::purge_watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return purge_watermark_;
}

std::string DeltaLog::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_path_;
}

std::vector<std::string> DeltaLog::SealedSegmentPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sealed_.size());
  for (const auto& seg : sealed_) out.push_back(seg.path);
  return out;
}

void DeltaLog::SetSealListener(
    std::function<void(const std::string& path, uint64_t last_seq)> listener) {
  // Taking mu_ here doubles as a drain: an in-flight rotation (which
  // invokes the listener under mu_) completes before the swap, so after
  // SetSealListener(nullptr) returns no further callback can run.
  std::lock_guard<std::mutex> lock(mu_);
  seal_listener_ = std::move(listener);
}

uint64_t DeltaLog::sync_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_calls_;
}

Status DeltaLog::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  while (io_in_progress_) cv_.wait(lock);
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Close();
  file_.reset();
  return st;
}

}  // namespace i2mr
