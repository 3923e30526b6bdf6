// MRBGraph chunk format (paper §3.4, Fig. 4). A chunk holds all preserved
// intermediate edges (K2, MK, V2) of one Reduce instance, stored
// contiguously:
//
//   [u32 magic][u32 payload_len][payload][u32 crc32-of-payload]
//   payload = [u32 key_len][key][u32 count] ([u64 mk][u32 vlen][v2])*
//
// Chunks are the unit of read/write/merge in the MRBG-Store.
#ifndef I2MR_MRBG_CHUNK_H_
#define I2MR_MRBG_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace i2mr {

/// One MRBGraph edge value within a chunk: the source Map instance (MK) and
/// the intermediate value V2 it contributed to this Reduce instance.
struct ChunkEntry {
  uint64_t mk = 0;
  std::string v2;

  friend bool operator==(const ChunkEntry& a, const ChunkEntry& b) {
    return a.mk == b.mk && a.v2 == b.v2;
  }
};

/// All preserved edges of one Reduce instance (identified by K2).
struct Chunk {
  std::string key;  // K2
  std::vector<ChunkEntry> entries;

  bool empty() const { return entries.empty(); }
};

/// A change to the MRBGraph produced by incremental Map computation:
/// an edge insertion/update (deleted=false) or an edge deletion ('-').
struct DeltaEdge {
  std::string k2;
  uint64_t mk = 0;
  std::string v2;
  bool deleted = false;
};

/// Serialize `chunk` (appends to *out). Returns the encoded length.
uint32_t EncodeChunk(const Chunk& chunk, std::string* out);

/// Parse one chunk from `data` (which must start at a chunk boundary and
/// contain the complete chunk). Verifies magic and checksum. Overwrites
/// *chunk in place, reusing its strings' capacity; on error its contents
/// are unspecified.
Status DecodeChunk(std::string_view data, Chunk* chunk);

/// Byte length of the encoding of `chunk` without encoding it.
uint32_t EncodedChunkLength(const Chunk& chunk);

/// Serialize a tombstone frame for `key` (appends to *out): same CRC
/// framing as a chunk but with the tombstone magic and a zero-size value
/// payload (just the key). The MRBG store appends one to delete
/// a chunk durably; a sequential scan replays it as an index erase.
/// Returns the encoded length.
uint32_t EncodeTombstone(const std::string& key, std::string* out);

/// One frame of the append-only chunk log, parsed in place by the
/// MRBG store's open-time scan: either a live chunk version
/// (`tombstone == false`; the `length`-byte prefix decodes with
/// DecodeChunk) or a zero-size tombstone deleting `key`.
struct ScannedFrame {
  std::string key;
  uint32_t length = 0;  // total frame bytes (header + payload + crc)
  bool tombstone = false;
};

/// Parse the frame starting at data[0]. Verifies magic, bounds and
/// checksum. Returns NotFound on empty input (clean end of scan),
/// Corruption on a torn or garbled frame.
Status ScanFrame(std::string_view data, ScannedFrame* frame);

/// Apply a group of delta edges (all for K2 chunk->key; their k2 field is
/// not read) to a chunk: deletions remove the matching MK; insertions
/// upsert by MK (paper §3.3: "checks duplicates, inserts if no duplicate
/// exists, else updates"). The result, entry order included, is that of
/// applying the deltas one at a time; new MKs are appended in the order of
/// their first upsert.
void ApplyDeltaToChunk(const std::vector<DeltaEdge>& deltas, Chunk* chunk);

}  // namespace i2mr

#endif  // I2MR_MRBG_CHUNK_H_
