// Hash index over the MRBGraph segments: K2 -> latest chunk location
// (paper §3.4: "we employ a hash-based implementation for the index...
// preloaded into memory before Reduce computation"), plus the batch
// boundaries (§5.2). Never persisted: MRBGStore rebuilds it on open by
// scanning the committed segments.
#ifndef I2MR_MRBG_CHUNK_INDEX_H_
#define I2MR_MRBG_CHUNK_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "io/file.h"

namespace i2mr {

/// Location of the latest version of a chunk: `segment` is a segment file
/// id and `offset` is relative to that segment.
struct ChunkLocation {
  uint64_t offset = 0;
  uint32_t length = 0;
  uint32_t batch = 0;    // which sorted batch the chunk belongs to
  uint64_t segment = 0;  // which segment file holds it

  friend bool operator==(const ChunkLocation& a, const ChunkLocation& b) {
    return a.offset == b.offset && a.length == b.length && a.batch == b.batch &&
           a.segment == b.segment;
  }
};

/// Byte range of one sorted batch of chunks (one merge epoch / iteration),
/// within `segment`.
struct BatchInfo {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t segment = 0;
};

class ChunkIndex {
 public:
  /// Point lookup. Returns nullptr if the key has no live chunk.
  const ChunkLocation* Lookup(const std::string& key) const;

  void Put(const std::string& key, const ChunkLocation& loc);
  void Erase(const std::string& key);
  void Clear();

  size_t size() const { return map_.size(); }
  bool Contains(const std::string& key) const { return map_.count(key) > 0; }

  const std::vector<BatchInfo>& batches() const { return batches_; }
  void AddBatch(const BatchInfo& b) { batches_.push_back(b); }

  /// Iterate all (key, location) pairs in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, loc] : map_) fn(key, loc);
  }

  /// Iterate with mutable locations (compaction repoints entries in place).
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (auto& [key, loc] : map_) fn(key, loc);
  }

  void SetBatches(std::vector<BatchInfo> batches) {
    batches_ = std::move(batches);
  }

 private:
  std::unordered_map<std::string, ChunkLocation> map_;
  std::vector<BatchInfo> batches_;
};

/// Address of one content chunk in a ContentChunkStore: identity is
/// (hash, length, crc) — the content — and (segment, offset) says where
/// the bytes live.
struct ContentChunkRef {
  uint64_t hash = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
  uint64_t segment = 0;
  uint64_t offset = 0;  // of the payload, past the frame header
};

/// Content-addressed chunk store + index, the transfer substrate of an
/// elastic reshard (serving/reshard.h). Donor state is cut into chunks and
/// Put() here; a destination that needs a chunk whose (hash, length, crc)
/// the store already holds — from a previous reshard attempt that crashed,
/// or from another destination's identical slice — reuses the stored bytes
/// instead of a second copy. Attach() scans the segment files under the
/// store dir, so reuse survives process restarts.
///
/// On-disk layout: append-only segment files `chunks-NNNNNN.dat` of frames
///   [u64 content-hash][u32 payload-len][u32 payload-crc][payload]
/// A torn tail frame (crash mid-append) is detected by length/CRC at
/// Attach() and truncated from the index (the file keeps the garbage tail;
/// the next Put() rotates to a fresh segment).
///
/// Single writer (the reshard coordinator); concurrent readers are fine
/// once Put() calls stop.
class ContentChunkStore {
 public:
  explicit ContentChunkStore(uint64_t segment_max_bytes = 8ull << 20);
  ~ContentChunkStore();
  ContentChunkStore(const ContentChunkStore&) = delete;
  ContentChunkStore& operator=(const ContentChunkStore&) = delete;

  /// Create (or reopen) the store under `dir` and index every intact
  /// frame already present.
  Status Attach(const std::string& dir);

  /// Store `payload` (or find it already stored). Sets *reused (may be
  /// null) to true when an identical chunk was already present and no
  /// bytes were written.
  StatusOr<ContentChunkRef> Put(std::string_view payload, bool* reused);

  /// Read a chunk's payload back, verifying length + CRC.
  StatusOr<std::string> Read(const ContentChunkRef& ref) const;

  /// Flush (and with sync=true fsync) the open segment.
  Status Flush(bool sync);

 private:
  std::string SegmentPath(uint64_t segment) const;
  Status RotateLocked();

  const uint64_t segment_max_bytes_;
  std::string dir_;
  uint64_t open_segment_ = 0;
  std::unique_ptr<WritableFile> writer_;
  /// content-hash -> every distinct chunk with that hash (collisions keep
  /// both; identity requires length + crc to also match).
  std::unordered_multimap<uint64_t, ContentChunkRef> index_;
};

}  // namespace i2mr

#endif  // I2MR_MRBG_CHUNK_INDEX_H_
