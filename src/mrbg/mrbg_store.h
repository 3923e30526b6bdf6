// MRBG-Store (paper §3.4 + §5.2): preserves fine-grain MRBGraph state
// (chunks of (K2, {MK, V2})) in append-only segment files with a hash
// chunk index, an append buffer for incremental storage, and a read cache
// with four read strategies:
//
//   kIndexOnly          - one exact I/O per chunk (Table 4 "index-only")
//   kSingleFixedWindow  - one fixed-size window shared across batches
//   kMultiFixedWindow   - one fixed-size window per sorted batch
//   kMultiDynamicWindow - Algorithm 1 + the §5.2 multi-window extension:
//                         window sized from the positions of upcoming
//                         queried chunks, per batch (the i2MapReduce
//                         default)
//
// On-disk layout: CRC-framed chunk entries and zero-size tombstones
// appended to rotating segment files (seg-NNNNNN.dat), last-writer-wins
// per key. A small MANIFEST names the live segments in logical order with
// their committed lengths; the chunk index is rebuilt by sequentially
// scanning them on open. A compactor — inline at batch boundaries or on a
// background thread — rewrites live chunks into a fresh segment and drops
// superseded/tombstoned ones once the wasted-bytes ratio crosses a
// threshold (the paper's reconstruction of the MRBGraph file, done
// online). Sealed segments are immutable inodes, so epoch snapshots
// hard-link them (SnapshotInto) and pinned readers keep serving dropped
// segments until their links go away.
#ifndef I2MR_MRBG_MRBG_STORE_H_
#define I2MR_MRBG_MRBG_STORE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "io/file.h"
#include "mrbg/chunk.h"
#include "mrbg/chunk_index.h"

namespace i2mr {

enum class ReadMode {
  kIndexOnly,
  kSingleFixedWindow,
  kMultiFixedWindow,
  kMultiDynamicWindow,
};

const char* ReadModeName(ReadMode mode);

struct MRBGStoreOptions {
  ReadMode read_mode = ReadMode::kMultiDynamicWindow;

  /// Read-cache budget: upper bound on one window's size (Algorithm 1's
  /// read_cache.size).
  size_t read_cache_bytes = 4u << 20;

  /// Gap threshold T (Algorithm 1; paper default 100 KB).
  size_t gap_threshold_bytes = 100u << 10;

  /// Window size for the fixed-window modes.
  size_t fixed_window_bytes = 256u << 10;

  /// Append buffer size: appended chunks are buffered in memory and spilled
  /// with sequential I/O when full (paper §3.4 "Incremental Storage").
  size_t append_buffer_bytes = 1u << 20;

  /// Retain up to this many recently flushed append bytes in memory and
  /// serve chunk reads from them. Iterative refreshes query in iteration
  /// j+1 the chunks they merged (appended) in iteration j: with the tail
  /// cache those reads never touch the file. 0 disables (keep it off for
  /// the paper's read-strategy experiments — it would mask the window
  /// machinery the modes compare).
  size_t tail_cache_bytes = 0;

  // ---- Segment log + compaction ------------------------------------------

  /// Seal the active segment at the next batch boundary once it exceeds
  /// this size.
  size_t segment_target_bytes = 8u << 20;

  /// Compact once wasted bytes (superseded versions, tombstones, dead
  /// tails) exceed this fraction of the sealed-segment bytes...
  double compact_wasted_ratio = 0.35;

  /// ...and exceed this floor (don't churn tiny stores)...
  size_t compact_min_wasted_bytes = 128u << 10;

  /// ...or whenever more than this many sealed segments accumulate
  /// (bounds read amplification independent of the waste ratio).
  size_t compact_max_segments = 8;

  /// Run compaction on a background thread woken at batch boundaries.
  /// Off: call CompactIfNeeded() (or Compact()) explicitly.
  bool background_compaction = false;
};

struct MRBGStoreStats {
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t io_reads = 0;     // Table 4 "# reads"
  uint64_t bytes_read = 0;   // Table 4 "rsize"
  uint64_t chunks_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t chunks_removed = 0;
  uint64_t tombstones_appended = 0;
  uint64_t compaction_passes = 0;
  uint64_t compaction_bytes_reclaimed = 0;
};

class MRBGStore {
 public:
  /// Open (or create) a store in directory `dir`.
  static StatusOr<std::unique_ptr<MRBGStore>> Open(
      const std::string& dir, const MRBGStoreOptions& options = {});

  ~MRBGStore();

  Status Close();

  // -- Query path -----------------------------------------------------------

  /// Announce the sorted list of keys the following Query() calls will
  /// request (the shuffle phase sorts K2s, so the engine knows this list;
  /// Algorithm 1 input L). Resets window state.
  Status PrepareQueries(std::vector<std::string> sorted_keys);

  /// Retrieve the latest chunk for `key`. Keys must be requested in
  /// PrepareQueries order. Returns NotFound if the key has no live chunk.
  StatusOr<Chunk> Query(const std::string& key);

  bool Contains(const std::string& key) const;
  size_t num_chunks() const;
  size_t num_batches() const;

  /// Iterate all live chunks in key order.
  Status ForEachChunk(const std::function<Status(const Chunk&)>& fn);

  // -- Write path -----------------------------------------------------------

  /// Append a new version of a chunk to the open batch and point the index
  /// at it. Chunks should be appended in K2-sorted order within a batch
  /// (the shuffle guarantees this for the engine).
  Status AppendChunk(const Chunk& chunk);

  /// Delete a chunk: appends a zero-size tombstone frame, so the delete
  /// survives an index rebuild by scan.
  Status RemoveChunk(const std::string& key);

  /// Close the open batch: flush the append buffer, record the batch
  /// boundary and (by default) write the MANIFEST. Iterative jobs may
  /// defer persistence to the end of the job (`persist_index = false`) and
  /// call PersistIndex() once — checkpoints persist explicitly. Also
  /// rotates an over-target active segment and kicks the background
  /// compactor when the waste policy triggers.
  Status FinishBatch(bool persist_index = true);

  /// Write the segment MANIFEST (the committed segment lengths) to disk.
  Status PersistIndex();

  /// Merge one delta group with the preserved chunk (index nested loop join
  /// step of §3.4): loads the old chunk (if any), applies deletions and
  /// upserts, appends the merged result (or removes it if empty) and
  /// returns it in *merged. Must be called in sorted-K2 order after
  /// PrepareQueries with the same key list. *merged is overwritten and its
  /// storage reused: pass the same Chunk for every group of a batch so the
  /// merge allocates nothing in steady state.
  Status MergeGroup(const std::string& k2, const std::vector<DeltaEdge>& deltas,
                    Chunk* merged);

  /// Full reconstruction: rewrite the store with only live chunks in key
  /// order as a single batch (paper: "The MRBGraph file is reconstructed
  /// off-line when the worker is idle"): every segment is compacted into
  /// one fresh segment.
  Status Compact();

  /// Run one compaction pass now if the waste policy thresholds are
  /// crossed (no-op otherwise).
  Status CompactIfNeeded();

  /// Block until the background compactor is idle (no requested or
  /// in-flight pass). No-op without background compaction.
  void WaitForCompaction();

  // -- Snapshots / recovery -------------------------------------------------

  /// Hard-link a self-consistent frozen image of the store into `dst_dir`
  /// (created if needed): the segment files plus a MANIFEST that
  /// references exactly the linked bytes. Safe concurrently with appends
  /// and background compaction — the image is cut under the store lock,
  /// and links keep dropped segments alive for the snapshot. Appends the
  /// created paths to *files when non-null. This is the pipeline's epoch
  /// commit path.
  Status SnapshotInto(const std::string& dst_dir,
                      std::vector<std::string>* files = nullptr);

  /// The consistent on-disk file set of a closed store directory (for
  /// snapshotting/checkpointing without opening it): MANIFEST + its
  /// segments. Empty if nothing durable exists.
  static StatusOr<std::vector<std::string>> ListStoreFiles(
      const std::string& dir);

  /// Re-load index and reopen files after an external restore (fault
  /// recovery path).
  Status Reload();

  // -- Introspection --------------------------------------------------------

  /// By value: the background compactor updates stats under the store lock.
  MRBGStoreStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lk(mu_);
    stats_ = MRBGStoreStats{};
  }
  /// Logical on-disk footprint (all segments, incl. unflushed appends).
  uint64_t file_bytes() const;
  /// Bytes of superseded versions, tombstones and dead tails.
  uint64_t wasted_bytes() const;
  /// Sealed + active segment files.
  size_t num_segments() const;
  const std::string& dir() const { return dir_; }

 private:
  MRBGStore(std::string dir, const MRBGStoreOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  struct Window {
    uint64_t start = 0;
    uint64_t end = 0;  // exclusive; == start means empty
    std::string buf;
  };

  /// One segment file. `length` is the
  /// committed (scannable) byte count — a restored segment's physical file
  /// may be longer (a dead tail grown through a hard link after the
  /// snapshot), and those bytes are never read.
  struct Segment {
    uint64_t id = 0;
    uint64_t length = 0;
    std::shared_ptr<RandomAccessFile> reader;  // lazily opened
  };

  Status OpenFiles();
  Status ScanSegmentLocked(size_t pos);
  Status FlushAppendBufferLocked();
  Status RotateActiveLocked();
  Status WriteManifestLocked();
  Status CloseLocked();
  Status FinishBatchLocked(bool persist_index);
  Status AppendChunkLocked(const Chunk& chunk);
  Status RemoveChunkLocked(const std::string& key);
  /// Decode the latest chunk for `key` into *chunk (reusing its storage).
  Status QueryLocked(const std::string& key, Chunk* chunk);
  Status ForEachChunkLocked(const std::function<Status(const Chunk&)>& fn);

  /// Waste policy check.
  bool ShouldCompactLocked() const;
  /// One compaction pass over the current sealed segments: rewrite live
  /// chunks into a fresh segment (lock dropped during the rewrite), then
  /// swap index + MANIFEST under the lock and unlink the victims.
  /// `all` additionally seals the active segment first so the result is a
  /// single segment (Compact() semantics).
  Status CompactPass(bool all);
  /// Run CompactPass(all) in the foreground, serialized against the
  /// background compactor.
  Status RunCompactPass(bool all);
  /// Simulated kill at compaction stage `stage` (fault-injected crash
  /// point "mrbg/compact/<stage>"): marks the store crashed, so it stops
  /// touching disk.
  bool CrashAt(const char* stage);
  void RequestCompactionLocked();
  void CompactorMain();
  void StartCompactor();
  void StopCompactor();

  /// Reader of segment `id` (opened lazily, cached on the Segment).
  StatusOr<RandomAccessFile*> SegmentReaderLocked(uint64_t id);
  std::string SegmentPath(uint64_t id) const;
  std::string ManifestPath() const;
  uint64_t active_id_locked() const { return segments_.back().id; }
  /// Flushed end of the segment holding `loc` (reads never pass it).
  uint64_t SegmentFlushedEndLocked(const ChunkLocation& loc) const;

  /// Read [offset, offset+length) through the window machinery for a chunk
  /// in `batch`; returns a view valid until the next window load.
  StatusOr<std::string_view> ReadChunkBytesLocked(const ChunkLocation& loc);
  /// Compute the dynamic window size per Algorithm 1 starting at query
  /// cursor position `qpos`.
  uint64_t DynamicWindowEndLocked(const ChunkLocation& loc, size_t qpos) const;
  uint32_t open_batch_id_locked() const {
    return static_cast<uint32_t>(index_.batches().size());
  }

  std::string dir_;
  MRBGStoreOptions options_;

  /// Guards everything below. Held by every public entry point; the
  /// background compactor holds it only for its short install phase, so
  /// queries/appends overlap the expensive segment rewrite.
  mutable std::mutex mu_;

  ChunkIndex index_;
  std::unique_ptr<WritableFile> writer_;  // active segment
  std::string append_buf_;
  /// Logical active-segment size incl. unflushed buffer.
  uint64_t file_end_ = 0;

  /// segments_ is the logical scan order; back() is the active
  /// (appendable) segment, everything before it is sealed and immutable.
  std::vector<Segment> segments_;
  uint64_t next_segment_id_ = 1;
  uint64_t batch_start_ = 0;  // active-segment offset of the open batch
  /// Incremental byte accounting, so the waste policy check is O(1):
  /// live_bytes_ counts all indexed chunk versions, live_active_bytes_ the
  /// subset living in the active segment, sealed_bytes_ the committed
  /// lengths of all sealed segments. Sealed waste (the only kind a pass
  /// can reclaim) = sealed_bytes_ - (live_bytes_ - live_active_bytes_).
  uint64_t live_bytes_ = 0;
  uint64_t live_active_bytes_ = 0;
  uint64_t sealed_bytes_ = 0;
  /// Set when a compaction crash point fired: disk must stay exactly as
  /// the abandoned pass left it, so Close() skips its final flush.
  bool crashed_ = false;

  // Background compactor.
  std::thread compactor_;
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compact_requested_ = false;
  bool compact_running_ = false;
  bool compact_stop_ = false;

  // Tail cache (see MRBGStoreOptions::tail_cache_bytes): a retained copy
  // of the most recently flushed bytes of the active segment.
  // The live region is tail_buf_[tail_dead_..end), covering file offsets
  // [tail_start_, tail_start_ + live size); eviction just grows the dead
  // prefix, and the buffer is compacted only when the dead prefix exceeds
  // the cache budget (amortized, no per-flush memmove).
  std::string tail_buf_;
  size_t tail_dead_ = 0;
  uint64_t tail_start_ = 0;

  std::vector<std::string> query_keys_;  // L, sorted
  size_t query_cursor_ = 0;
  /// Keyed by (segment << 32) | batch — offsets are segment-relative, so
  /// windows must never be shared across segments (single-window mode:
  /// (segment << 32); index-only scratch: ~0ull).
  std::map<uint64_t, Window> windows_;

  MRBGStoreStats stats_;
};

}  // namespace i2mr

#endif  // I2MR_MRBG_MRBG_STORE_H_
