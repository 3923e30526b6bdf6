#include "io/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/codec.h"
#include "common/hash.h"
#include "io/fault_env.h"

namespace i2mr {

namespace fs = std::filesystem;

Status CreateDirs(const std::string& path) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kMkdir, path));
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("create_directories " + path + ": " + ec.message());
  return Status::OK();
}

Status RemoveAll(const std::string& path) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kRemove, path));
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("remove_all " + path + ": " + ec.message());
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

StatusOr<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  auto sz = fs::file_size(path, ec);
  if (ec) return Status::IOError("file_size " + path + ": " + ec.message());
  return static_cast<uint64_t>(sz);
}

Status RenameFile(const std::string& from, const std::string& to) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kRename, to));
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) return Status::IOError("rename " + from + " -> " + to + ": " + ec.message());
  return Status::OK();
}

Status CopyFile(const std::string& from, const std::string& to) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kLink, to));
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec) return Status::IOError("copy " + from + " -> " + to + ": " + ec.message());
  return Status::OK();
}

Status LinkOrCopyFile(const std::string& from, const std::string& to) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kLink, to));
  std::error_code ec;
  fs::remove(to, ec);  // link(2) refuses to replace an existing target
  if (ec) return Status::IOError("remove " + to + ": " + ec.message());
  fs::create_hard_link(from, to, ec);
  if (!ec) return Status::OK();
  return CopyFile(from, to);
}

Status SyncFile(const std::string& path) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kSync, path));
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kSyncDir, dir));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> ListFiles(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> out;
  for (auto it = fs::directory_iterator(dir, ec); !ec && it != fs::end(it); it.increment(ec)) {
    if (it->is_regular_file(ec)) out.push_back(it->path().string());
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(out.begin(), out.end());
  return out;
}

Status WriteStringToFile(const std::string& path, const std::string& data,
                         bool sync) {
  size_t write_len = data.size();
  Status injected_error;  // surfaced after the torn prefix (if any) lands
  if (fault::FaultInjector::Armed()) {
    auto injected = fault::FaultInjector::Instance()->MaybeWriteFault(
        fault::kWriteFile, path, data.size());
    if (!injected.status.ok()) {
      if (injected.prefix_bytes == 0) return injected.status;
      write_len = injected.prefix_bytes;  // torn write: land a prefix, fail
      injected_error = injected.status;
    }
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + path + ": " + std::strerror(errno));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open for write: " + path);
  size_t n = write_len == 0 ? 0 : std::fwrite(data.data(), 1, write_len, f);
  bool synced = true;
  if (sync && n == write_len) {
    synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  int rc = std::fclose(f);
  if (!injected_error.ok()) return injected_error;
  if (n != write_len || rc != 0 || !synced) {
    return Status::IOError("write: " + path);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  I2MR_RETURN_IF_ERROR(fault::Check(fault::kOpenRead, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("open for read: " + path);
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::IOError("read: " + path);
  return out;
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (!a.empty() && a.back() == '/') return a + b;
  return a + "/" + b;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Status ResetDir(const std::string& path) {
  I2MR_RETURN_IF_ERROR(RemoveAll(path));
  return CreateDirs(path);
}

std::string EncodeCrcRecord(std::string_view payload) {
  std::string record(payload);
  PutFixed32(&record, Crc32(payload));
  return record;
}

StatusOr<std::string_view> DecodeCrcRecord(std::string_view data,
                                           size_t payload_size) {
  if (data.size() != payload_size + 4) {
    return Status::Corruption("bad record size " + std::to_string(data.size()) +
                              ", expected " + std::to_string(payload_size + 4));
  }
  std::string_view payload = data.substr(0, payload_size);
  if (DecodeFixed32(data.data() + payload_size) != Crc32(payload)) {
    return Status::Corruption("record crc mismatch");
  }
  return payload;
}

StatusOr<std::string> ReadCrcRecord(const std::string& path,
                                    size_t payload_size) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  auto payload = DecodeCrcRecord(*data, payload_size);
  if (!payload.ok()) {
    return Status::Corruption(path + ": " + payload.status().ToString());
  }
  return std::string(*payload);
}

Status ReplaceFileDurably(const std::string& path, const std::string& bytes,
                          bool sync) {
  const std::string tmp = path + ".tmp";
  I2MR_RETURN_IF_ERROR(WriteStringToFile(tmp, bytes, sync));
  I2MR_RETURN_IF_ERROR(RenameFile(tmp, path));
  if (!sync) return Status::OK();
  size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace i2mr
