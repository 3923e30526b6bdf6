#include "mrbg/chunk_index.h"

#include <algorithm>
#include <cstdio>

#include "common/codec.h"
#include "common/hash.h"
#include "io/env.h"

namespace i2mr {

const ChunkLocation* ChunkIndex::Lookup(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void ChunkIndex::Put(const std::string& key, const ChunkLocation& loc) {
  map_[key] = loc;
}

void ChunkIndex::Erase(const std::string& key) { map_.erase(key); }

void ChunkIndex::Clear() {
  map_.clear();
  batches_.clear();
}

// ---------------------------------------------------------------------------
// ContentChunkStore
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kContentFrameHeader = 8 + 4 + 4;  // hash, len, crc

std::string ContentSegmentName(uint64_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunks-%06llu.dat",
                static_cast<unsigned long long>(segment));
  return buf;
}

}  // namespace

ContentChunkStore::ContentChunkStore(uint64_t segment_max_bytes)
    : segment_max_bytes_(segment_max_bytes) {}

ContentChunkStore::~ContentChunkStore() {
  if (writer_ != nullptr) {
    Status st = writer_->Close();
    (void)st;  // best-effort: destruction can't propagate
  }
}

std::string ContentChunkStore::SegmentPath(uint64_t segment) const {
  return JoinPath(dir_, ContentSegmentName(segment));
}

Status ContentChunkStore::Attach(const std::string& dir) {
  dir_ = dir;
  I2MR_RETURN_IF_ERROR(CreateDirs(dir));
  index_.clear();
  open_segment_ = 0;
  writer_ = nullptr;

  auto files = ListFiles(dir);
  if (!files.ok()) return files.status();
  uint64_t max_segment = 0;
  bool any = false;
  for (const auto& path : *files) {
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    unsigned long long seg = 0;
    if (std::sscanf(base.c_str(), "chunks-%06llu.dat", &seg) != 1) continue;
    any = true;
    max_segment = std::max<uint64_t>(max_segment, seg);
    auto data = ReadFileToString(path);
    if (!data.ok()) return data.status();
    // Frame scan; a torn tail (crash mid-append) simply ends the segment —
    // every intact frame before it is reusable.
    size_t off = 0;
    while (off + kContentFrameHeader <= data->size()) {
      uint64_t hash = DecodeFixed64(data->data() + off);
      uint32_t len = DecodeFixed32(data->data() + off + 8);
      uint32_t crc = DecodeFixed32(data->data() + off + 12);
      size_t payload_off = off + kContentFrameHeader;
      if (payload_off + len > data->size()) break;
      std::string_view payload(data->data() + payload_off, len);
      if (Crc32(payload) != crc || Hash64(payload) != hash) break;
      index_.emplace(hash, ContentChunkRef{hash, len, crc, seg,
                                           static_cast<uint64_t>(payload_off)});
      off = payload_off + len;
    }
  }
  // Never append to a pre-existing segment: it may carry a torn tail, and
  // indexed offsets into it must stay valid. New writes open a fresh file.
  open_segment_ = any ? max_segment + 1 : 0;
  return Status::OK();
}

Status ContentChunkStore::RotateLocked() {
  if (writer_ != nullptr) {
    I2MR_RETURN_IF_ERROR(writer_->Close());
    writer_ = nullptr;
    ++open_segment_;
  }
  auto file = WritableFile::Create(SegmentPath(open_segment_));
  if (!file.ok()) return file.status();
  writer_ = std::move(file.value());
  return Status::OK();
}

StatusOr<ContentChunkRef> ContentChunkStore::Put(std::string_view payload,
                                                 bool* reused) {
  if (dir_.empty()) return Status::FailedPrecondition("store not attached");
  const uint64_t hash = Hash64(payload);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  auto [it, end] = index_.equal_range(hash);
  for (; it != end; ++it) {
    if (it->second.length == len && it->second.crc == crc) {
      if (reused != nullptr) *reused = true;
      return it->second;
    }
  }
  if (reused != nullptr) *reused = false;
  if (writer_ == nullptr || writer_->offset() >= segment_max_bytes_) {
    I2MR_RETURN_IF_ERROR(RotateLocked());
  }
  std::string header;
  PutFixed64(&header, hash);
  PutFixed32(&header, len);
  PutFixed32(&header, crc);
  const uint64_t payload_off = writer_->offset() + header.size();
  I2MR_RETURN_IF_ERROR(writer_->Append(header));
  I2MR_RETURN_IF_ERROR(writer_->Append(payload));
  ContentChunkRef ref{hash, len, crc, open_segment_, payload_off};
  index_.emplace(hash, ref);
  return ref;
}

StatusOr<std::string> ContentChunkStore::Read(const ContentChunkRef& ref) const {
  // The chunk may sit in the open segment's userspace buffer.
  if (writer_ != nullptr) {
    I2MR_RETURN_IF_ERROR(writer_->Flush());
  }
  auto file = RandomAccessFile::Open(SegmentPath(ref.segment));
  if (!file.ok()) return file.status();
  std::string payload;
  I2MR_RETURN_IF_ERROR((*file)->Read(ref.offset, ref.length, &payload));
  if (payload.size() != ref.length || Crc32(payload) != ref.crc ||
      Hash64(payload) != ref.hash) {
    return Status::Corruption("content chunk mismatch in " +
                              SegmentPath(ref.segment));
  }
  return payload;
}

Status ContentChunkStore::Flush(bool sync) {
  if (writer_ == nullptr) return Status::OK();
  I2MR_RETURN_IF_ERROR(sync ? writer_->Sync() : writer_->Flush());
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(dir_));
  return Status::OK();
}

}  // namespace i2mr
