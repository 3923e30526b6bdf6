#include "mrbg/chunk.h"

#include <algorithm>

#include "common/codec.h"
#include "common/hash.h"

namespace i2mr {
namespace {

constexpr uint32_t kChunkMagic = 0x4d524247;      // "MRBG"
constexpr uint32_t kTombstoneMagic = 0x4d524254;  // "MRBT"

uint32_t PayloadChecksum(std::string_view payload) {
  return static_cast<uint32_t>(Hash64(payload.data(), payload.size()));
}

}  // namespace

uint32_t EncodedChunkLength(const Chunk& chunk) {
  uint32_t len = 4 + 4 + 4;                     // magic + payload_len + crc
  len += 4 + static_cast<uint32_t>(chunk.key.size());  // key
  len += 4;                                      // count
  for (const auto& e : chunk.entries) {
    len += 8 + 4 + static_cast<uint32_t>(e.v2.size());
  }
  return len;
}

uint32_t EncodeChunk(const Chunk& chunk, std::string* out) {
  // The frame is written straight into *out; the payload length is known
  // up front and the checksum is taken over the bytes in place.
  const size_t start = out->size();
  const uint32_t len = EncodedChunkLength(chunk);
  const uint32_t payload_len = len - 12;
  out->reserve(start + len);
  PutFixed32(out, kChunkMagic);
  PutFixed32(out, payload_len);
  PutLengthPrefixed(out, chunk.key);
  PutFixed32(out, static_cast<uint32_t>(chunk.entries.size()));
  for (const auto& e : chunk.entries) {
    PutFixed64(out, e.mk);
    PutLengthPrefixed(out, e.v2);
  }
  PutFixed32(out, PayloadChecksum(
                      std::string_view(out->data() + start + 8, payload_len)));
  return len;
}

Status DecodeChunk(std::string_view data, Chunk* chunk) {
  Decoder dec(data);
  uint32_t magic, payload_len;
  if (!dec.GetFixed32(&magic) || magic != kChunkMagic) {
    return Status::Corruption("bad chunk magic");
  }
  if (!dec.GetFixed32(&payload_len) || dec.remaining() < payload_len + 4) {
    return Status::Corruption("truncated chunk");
  }
  std::string_view payload(data.data() + 8, payload_len);
  Decoder body(payload);
  if (!body.GetLengthPrefixed(&chunk->key)) {
    return Status::Corruption("bad chunk key");
  }
  uint32_t count;
  if (!body.GetFixed32(&count)) return Status::Corruption("bad chunk count");
  // Entries are overwritten in place, so a reused Chunk keeps its entry
  // strings' capacity. Every entry takes at least 12 payload bytes; check
  // the count against that before sizing the vector.
  if (count > body.remaining() / 12) {
    return Status::Corruption("bad chunk entry");
  }
  chunk->entries.resize(count);
  std::string_view v2;
  for (auto& e : chunk->entries) {
    if (!body.GetFixed64(&e.mk) || !body.GetLengthPrefixed(&v2)) {
      return Status::Corruption("bad chunk entry");
    }
    e.v2.assign(v2.data(), v2.size());
  }
  if (!body.done()) return Status::Corruption("chunk payload trailing bytes");
  Decoder crc_dec(data.data() + 8 + payload_len, 4);
  uint32_t crc;
  crc_dec.GetFixed32(&crc);
  if (crc != PayloadChecksum(payload)) {
    return Status::Corruption("chunk checksum mismatch for key " + chunk->key);
  }
  return Status::OK();
}

uint32_t EncodeTombstone(const std::string& key, std::string* out) {
  const size_t start = out->size();
  const uint32_t payload_len = 4 + static_cast<uint32_t>(key.size());
  PutFixed32(out, kTombstoneMagic);
  PutFixed32(out, payload_len);
  PutLengthPrefixed(out, key);
  PutFixed32(out, PayloadChecksum(
                      std::string_view(out->data() + start + 8, payload_len)));
  return static_cast<uint32_t>(out->size() - start);
}

Status ScanFrame(std::string_view data, ScannedFrame* frame) {
  if (data.empty()) return Status::NotFound("end of log");
  Decoder dec(data);
  uint32_t magic, payload_len;
  if (!dec.GetFixed32(&magic) ||
      (magic != kChunkMagic && magic != kTombstoneMagic)) {
    return Status::Corruption("bad frame magic");
  }
  if (!dec.GetFixed32(&payload_len) || dec.remaining() < payload_len + 4) {
    return Status::Corruption("truncated frame");
  }
  std::string_view payload(data.data() + 8, payload_len);
  Decoder crc_dec(data.data() + 8 + payload_len, 4);
  uint32_t crc;
  crc_dec.GetFixed32(&crc);
  if (crc != PayloadChecksum(payload)) {
    return Status::Corruption("frame checksum mismatch");
  }
  Decoder body(payload);
  if (!body.GetLengthPrefixed(&frame->key)) {
    return Status::Corruption("bad frame key");
  }
  frame->tombstone = magic == kTombstoneMagic;
  frame->length = 8 + payload_len + 4;
  return Status::OK();
}

void ApplyDeltaToChunk(const std::vector<DeltaEdge>& deltas, Chunk* chunk) {
  // One at a time, a deletion marks the last entry with its MK dead and an
  // upsert overwrites (and revives) that entry or else appends one; the
  // dead are removed after the last delta. The entry order must match, as
  // it fixes the reducer's summation order. So per distinct MK only its
  // last delta decides the outcome, and a new MK lands after the existing
  // entries at the rank of its first upsert. Only the deltas are indexed:
  // one op per distinct MK, sorted by MK, in a stack buffer unless the
  // group is large.
  if (deltas.empty()) return;
  constexpr size_t kNone = ~size_t{0};
  struct Op {
    uint64_t mk;
    size_t last;          // index of the MK's last delta
    size_t first_upsert;  // index of its first upsert (kNone: none)
    size_t pos;           // last chunk entry with this MK (kNone: none)
  };
  constexpr size_t kInlineOps = 32;
  Op inline_ops[kInlineOps] = {};
  std::vector<Op> heap_ops;
  Op* ops = inline_ops;
  if (deltas.size() > kInlineOps) {
    heap_ops.resize(deltas.size());
    ops = heap_ops.data();
  }
  for (size_t i = 0; i < deltas.size(); ++i) {
    ops[i] = Op{deltas[i].mk, i, deltas[i].deleted ? kNone : i, kNone};
  }
  // Sorting by (MK, delta index) lists a MK's deltas in order; fold each
  // run into its first op.
  std::sort(ops, ops + deltas.size(), [](const Op& a, const Op& b) {
    return a.mk != b.mk ? a.mk < b.mk : a.last < b.last;
  });
  size_t n = 0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (n > 0 && ops[n - 1].mk == ops[i].mk) {
      ops[n - 1].last = ops[i].last;
      ops[n - 1].first_upsert =
          std::min(ops[n - 1].first_upsert, ops[i].first_upsert);
    } else {
      ops[n++] = ops[i];
    }
  }
  auto find = [&](uint64_t mk) -> Op* {
    Op* it = std::lower_bound(
        ops, ops + n, mk, [](const Op& op, uint64_t k) { return op.mk < k; });
    return it != ops + n && it->mk == mk ? it : nullptr;
  };
  auto drops = [&](const Op& op) { return deltas[op.last].deleted; };

  // Locate each MK's last entry: scan backwards until all are found.
  auto& entries = chunk->entries;
  size_t unmatched = n;
  for (size_t i = entries.size(); i-- > 0 && unmatched > 0;) {
    Op* op = find(entries[i].mk);
    if (op != nullptr && op->pos == kNone) {
      op->pos = i;
      --unmatched;
    }
  }

  // Overwrite the matched entries that stay; drop the others.
  size_t first_dead = kNone;
  for (size_t i = 0; i < n; ++i) {
    if (ops[i].pos == kNone) continue;
    if (drops(ops[i])) {
      first_dead = std::min(first_dead, ops[i].pos);
    } else {
      entries[ops[i].pos].v2 = deltas[ops[i].last].v2;
    }
  }
  if (first_dead != kNone) {
    size_t w = first_dead;
    for (size_t i = first_dead; i < entries.size(); ++i) {
      const Op* op = find(entries[i].mk);
      if (op != nullptr && op->pos == i && drops(*op)) continue;
      if (w != i) entries[w] = std::move(entries[i]);
      ++w;
    }
    entries.resize(w);
  }

  // Append the new MKs that end alive, in order of their first upsert.
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ops[i].pos == kNone && !drops(ops[i])) ops[fresh++] = ops[i];
  }
  std::sort(ops, ops + fresh, [](const Op& a, const Op& b) {
    return a.first_upsert < b.first_upsert;
  });
  for (size_t i = 0; i < fresh; ++i) {
    entries.push_back(ChunkEntry{ops[i].mk, deltas[ops[i].last].v2});
  }
}

}  // namespace i2mr
