// DeltaLog: the durable ingestion edge of a pipeline. An append-only log of
// structure-data updates (insert / update / delete DeltaKVs), each assigned
// a monotonically increasing sequence number and framed like the MRBG chunk
// format:
//
//   [u32 magic][u32 payload_len][payload][u32 crc32-of-payload]
//   payload = [u64 seq][u8 op][u32 klen][key][u32 vlen][value]
//
// The log is *segmented* (LSM/WAL-style): appends go to the active
// `seg-<firstseq>.dat`; once it reaches `segment_bytes` it is sealed
// (immutable from then on) and a new active segment is opened. On disk:
//
//   <dir>/seg-00000000000000000001.dat   sealed
//   <dir>/seg-00000000000000004096.dat   sealed
//   <dir>/seg-00000000000000008192.dat   active (tail may be torn)
//   <dir>/PURGE                          highest purged watermark (crc'd)
//   <dir>/archive/seg-*.dat              consumed segments (archival mode)
//
// Open() recovers by scanning segments in sequence order: a torn or garbled
// tail is truncated away only on the *last* segment (a crash mid-append);
// damage inside a sealed segment is real corruption and fails the open.
// Records stay in an in-memory index ordered by sequence number, so readers
// (epoch drains, lag probes) never touch the files.
//
// PurgeThrough() is O(segments), not O(live bytes): it durably bumps the
// PURGE watermark, then unlinks (or archives) fully consumed segments
// outside the log mutex — appends never stall behind a purge, and live
// records are never rewritten. Consumed records inside a partially consumed
// segment cost only their disk bytes until that segment retires.
#ifndef I2MR_PIPELINE_DELTA_LOG_H_
#define I2MR_PIPELINE_DELTA_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/status.h"
#include "io/file.h"

namespace i2mr {

/// One logged update: the delta record plus its log sequence number.
struct SeqDelta {
  uint64_t seq = 0;
  DeltaKV delta;
};

struct DeltaLogOptions {
  /// Rotation threshold: the active segment is sealed once it holds at
  /// least this many bytes (a large batch may overshoot by its own size).
  uint64_t segment_bytes = 4ull << 20;

  /// Move fully consumed segments into `<dir>/archive/` instead of
  /// unlinking them (cold storage for replay/debugging, and the
  /// replication shipper's fallback source for a segment that retired
  /// before it shipped).
  bool archive_purged = false;

  /// With archive_purged: compact the retired segment to its valid record
  /// prefix and LZ-compress it into `archive/seg-*.lzd` instead of
  /// renaming the raw file. Scans read `.lzd` segments transparently, so
  /// a follower replaying shipped archives never notices the codec.
  bool compress_archive = false;

  /// Recovery/replay scans memory-map segment files at least this large
  /// instead of buffering them through read(2) — the large-backlog
  /// follower catch-up path. 0 disables mapping (always stream).
  uint64_t mmap_scan_bytes = 1ull << 20;

  /// kProcessCrash: appends are flushed to the OS. kPowerFailure: appends,
  /// rotation and the PURGE mark are fsync'd before success is reported.
  DurabilityMode durability = DurabilityMode::kProcessCrash;
};

class DeltaLog {
 public:
  /// What the recovery scan found on open.
  struct RecoveryStats {
    uint64_t records = 0;         // live records recovered (post-purge)
    uint64_t segments = 0;        // segment files scanned
    uint64_t valid_bytes = 0;     // total length of the valid prefixes
    uint64_t discarded_bytes = 0; // torn/garbled tail truncated away
  };

  /// Open (or create) the log backed by segment files under `dir`,
  /// recovering by scan.
  static StatusOr<std::unique_ptr<DeltaLog>> Open(const std::string& dir,
                                                  DeltaLogOptions options = {});

  ~DeltaLog();
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Raise the sequence floor: the next append gets a seq > `seq`. Called
  /// by the owner after recovering its committed watermark, so that a log
  /// whose records were all purged (or lost) never re-issues sequence
  /// numbers at or below the watermark — those appends would look already
  /// consumed and be silently skipped.
  void EnsureNextSeqAfter(uint64_t seq);

  /// Append one update; the record is flushed to the OS (and fsync'd in
  /// kPowerFailure mode) when this returns. Returns the assigned sequence
  /// number. Fails with InvalidArgument when a field exceeds
  /// kMaxRecordFieldLen (the recovery scan would reject the frame as
  /// corrupt, losing everything after it).
  StatusOr<uint64_t> Append(const DeltaKV& delta);

  /// Append a batch with one flush; returns the last assigned sequence.
  ///
  /// Concurrent calls group-commit: appenders queue, the front one becomes
  /// the leader, writes every queued batch's frames, and issues ONE
  /// flush/fsync covering the whole group — in kPowerFailure mode
  /// concurrent appenders amortize the fsync instead of paying one each.
  /// Records become visible to readers (ReadRange) only once their group's
  /// flush succeeded, so a drain can never consume a record whose append
  /// later fails and rolls back.
  StatusOr<uint64_t> AppendBatch(const std::vector<DeltaKV>& deltas);

  /// All records with `after < seq <= upto`, in sequence order.
  std::vector<SeqDelta> ReadRange(uint64_t after, uint64_t upto) const;

  /// Drop every record with seq <= `watermark` (consumed by a committed
  /// epoch). Durably records the watermark, then retires fully consumed
  /// segments outside the log mutex — O(segments), no live-byte rewrite.
  Status PurgeThrough(uint64_t watermark);

  /// Highest assigned sequence number (0 when nothing was ever appended).
  uint64_t last_seq() const;

  /// Number of records currently retained (post-purge).
  uint64_t live_records() const;

  /// Segment files currently backing the log (sealed + active).
  uint64_t segment_files() const;

  /// Highest durably purged watermark (0 when never purged).
  uint64_t purge_watermark() const;

  /// Leader flush/fsync calls issued so far: with concurrent appenders this
  /// grows slower than the append count (the group-commit amortization).
  uint64_t sync_count() const;

  const RecoveryStats& recovery_stats() const { return recovery_; }
  /// Path of the active (appendable) segment.
  std::string path() const;
  const std::string& dir() const { return dir_; }

  /// Every immutable segment file a follower may need: the sealed
  /// segments in sequence order (not the active one), then the archived
  /// ones (archival mode; raw or compressed).
  std::vector<std::string> ShippableSegmentPaths() const;

  /// Observe segment seals: called with the sealed file's path and the
  /// highest sequence it holds, every time the active segment rotates.
  /// Runs under the log mutex — the callback must be cheap (enqueue +
  /// wake) and must never call back into this log. nullptr detaches;
  /// detaching waits out an in-flight notification.
  void SetSealListener(
      std::function<void(const std::string& path, uint64_t last_seq)> listener);

  Status Close();

 private:
  struct SegmentInfo {
    std::string path;
    uint64_t last_seq = 0;  // highest seq it holds (0 = empty)
    uint64_t records = 0;
  };

  explicit DeltaLog(std::string dir, DeltaLogOptions options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  Status Recover();
  /// Scan one segment file; appends live records to records_. Fills
  /// *last_seq / *nrecords with what the segment holds. `is_last` enables
  /// torn-tail truncation; `prev_max` is the highest seq of any earlier
  /// segment (cross-segment monotonicity check).
  Status ScanSegment(const std::string& path, bool is_last, uint64_t prev_max,
                     uint64_t* last_seq, uint64_t* nrecords);
  /// One queued AppendBatch call (group commit). The front writer is the
  /// leader: it stages frames for every queued writer, performs the I/O
  /// with mu_ released (writers behind it park on cv_, so nothing else
  /// touches file_), then publishes results and wakes the group.
  struct Writer {
    const std::vector<DeltaKV>* deltas = nullptr;
    bool done = false;
    Status status;
    uint64_t last_seq = 0;
  };

  /// Leader body for one group commit; called with `lock` held on mu_ and
  /// *this writer at the front of writers_.
  void CommitGroupLocked(std::unique_lock<std::mutex>& lock);
  /// Undo a partially applied append group (truncate + drop records).
  Status RollbackLocked(uint64_t file_offset, size_t record_count,
                        uint64_t next_seq, uint64_t active_last_seq,
                        uint64_t active_records);
  /// Seal the active segment and open a fresh one named after next_seq_.
  Status RotateLocked();
  /// Unlink or archive a fully consumed segment file.
  Status RetireSegmentFile(const std::string& path);
  /// True when a kind=crash rule (io/fault_env.h) fires at
  /// "delta_log/<stage>": "rotate" (the old active was sealed but no new
  /// segment exists yet) or "purge-marked" (the PURGE watermark is durable
  /// but consumed segments are not yet retired). The log then refuses
  /// further appends until reopened, as after process death.
  bool SimulateCrashLocked(const char* stage);

  const std::string dir_;
  const DeltaLogOptions options_;
  mutable std::mutex mu_;
  /// Group-commit writer queue (guarded by mu_). cv_ wakes parked writers
  /// when their group completes and the next leader when it reaches the
  /// front; it also signals io_in_progress_ dropping back to false.
  std::deque<Writer*> writers_;
  std::condition_variable cv_;
  /// True while the leader writes/syncs with mu_ released. PurgeThrough
  /// and Close wait it out before touching file_.
  bool io_in_progress_ = false;
  uint64_t sync_calls_ = 0;
  std::unique_ptr<WritableFile> file_;  // active segment
  std::string active_path_;
  uint64_t active_last_seq_ = 0;
  uint64_t active_records_ = 0;
  std::vector<SegmentInfo> sealed_;     // in sequence order
  std::vector<SeqDelta> records_;       // ordered by seq (in-memory index)
  uint64_t next_seq_ = 1;
  uint64_t purge_watermark_ = 0;
  RecoveryStats recovery_;
  /// Seal notification (guarded by mu_; invoked under mu_ from rotation).
  std::function<void(const std::string& path, uint64_t last_seq)>
      seal_listener_;
};

/// Frame one record (appends to *out). Exposed for tests and tools.
void EncodeLogRecord(uint64_t seq, const DeltaKV& delta, std::string* out);

/// Segment file name for a first sequence number ("seg-<20-digit-seq>.dat").
std::string DeltaLogSegmentName(uint64_t first_seq);

/// True for any segment file name this log reads: raw ("seg-*.dat") or
/// compressed archive ("seg-*.lzd").
bool IsDeltaLogSegmentFile(const std::string& path);

/// True for the compressed-archive form ("seg-*.lzd") specifically.
bool IsCompressedDeltaLogSegmentFile(const std::string& path);

/// First sequence number encoded in a segment file name (0 when `path` is
/// not a segment file).
uint64_t DeltaLogSegmentFirstSeq(const std::string& path);

// -- A follower's shipped log ------------------------------------------------
//
// A follower replica holds copies of its primary's sealed and archived
// segments in a log dir no DeltaLog has open; a promotion opens one over
// it. These functions keep that dir a log the open can recover: one file
// per sequence span, and a PURGE mark at the follower's applied watermark.

/// Copy the segment file `src` into `dir` (tmp + rename; skipped when a
/// same-size file of that name is already there), then drop any twin
/// holding the same span under the other encoding. Returns the bytes
/// copied (0 when skipped).
StatusOr<uint64_t> InstallDeltaLogSegment(const std::string& dir,
                                          const std::string& src, bool sync);

/// Remove every raw `seg-X.dat` whose compressed re-encoding `seg-X.lzd`
/// is also in `dir`: both cover one seq span, and a recovery scan would
/// read the pair as a sequence regression. The compressed form — the one
/// the primary retains — stays. DeltaLog::Open runs this first.
Status DropDeltaLogSegmentTwins(const std::string& dir);

/// First sequence numbers of the segment files in `dir`: a segment's
/// identity, whichever encoding holds it.
std::set<uint64_t> DeltaLogSegmentFirstSeqs(const std::string& dir);

/// Durably advance `dir`'s PURGE mark to `watermark` (no-op unless it
/// grows), then delete the segments wholly at or below it — the records a
/// log opened over `dir` would drop at recovery anyway. The last segment
/// stays: its upper bound is unknown without a scan.
Status PurgeDeltaLogSegmentsThrough(const std::string& dir, uint64_t watermark,
                                    bool sync);

}  // namespace i2mr

#endif  // I2MR_PIPELINE_DELTA_LOG_H_
