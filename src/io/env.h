// Filesystem helpers (std::filesystem wrappers returning Status).
#ifndef I2MR_IO_ENV_H_
#define I2MR_IO_ENV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace i2mr {

Status CreateDirs(const std::string& path);
Status RemoveAll(const std::string& path);
bool FileExists(const std::string& path);
StatusOr<uint64_t> FileSize(const std::string& path);
Status RenameFile(const std::string& from, const std::string& to);
Status CopyFile(const std::string& from, const std::string& to);

/// Hard-link `from` at `to` (O(1), the epoch-snapshot fast path), falling
/// back to a byte copy when the filesystem refuses (cross-device link,
/// FAT-style no-hardlink filesystems). Any existing `to` is replaced.
Status LinkOrCopyFile(const std::string& from, const std::string& to);

/// fsync a directory: persists the directory entries (creations, renames,
/// unlinks) inside it. Required after a commit rename for power-failure
/// durability; a no-op level of safety on process-crash-only paths.
Status SyncDir(const std::string& dir);

/// fsync an already-written file by path (flushes its dirty pages). Used on
/// hard-linked snapshot files, whose bytes were appended through another
/// path's handle and may still sit in the page cache.
Status SyncFile(const std::string& path);

/// Sorted list of regular files directly under `dir` (full paths).
StatusOr<std::vector<std::string>> ListFiles(const std::string& dir);

/// Whole-file read/write. Writes always land on a fresh inode (hard-link
/// snapshot safety; see WritableFile::Create). With `sync` set the data is
/// fsync'd before close — the caller still owns SyncDir of the parent.
Status WriteStringToFile(const std::string& path, const std::string& data,
                         bool sync = false);
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Join path components with '/'.
std::string JoinPath(const std::string& a, const std::string& b);

/// The last component of `path` ("a/b/c" -> "c").
std::string Basename(const std::string& path);

/// Create a fresh (empty) directory, removing any previous contents.
Status ResetDir(const std::string& path);

// -- Small durable records ---------------------------------------------------
//
// The fixed-size records (epoch MANIFEST, PARTMAP/RESHARD, BARRIER, PURGE,
// the replica's GEN) share one frame: payload ‖ fixed32 crc32(payload).

/// Frame `payload` as payload ‖ crc32(payload).
std::string EncodeCrcRecord(std::string_view payload);

/// The payload of a frame that must hold exactly `payload_size` bytes of
/// payload; Corruption on a size or CRC mismatch. Views into `data`.
StatusOr<std::string_view> DecodeCrcRecord(std::string_view data,
                                           size_t payload_size);
/// Read the record file at `path` and return its payload; a Corruption
/// names the path.
StatusOr<std::string> ReadCrcRecord(const std::string& path,
                                    size_t payload_size);

/// Replace `path` with `bytes` so that a crash leaves the old file or the
/// new one, never a mix: write `<path>.tmp` (fsync'd when `sync`), rename
/// it over `path`, then (when `sync`) fsync the parent directory.
Status ReplaceFileDurably(const std::string& path, const std::string& bytes,
                          bool sync);

}  // namespace i2mr

#endif  // I2MR_IO_ENV_H_
