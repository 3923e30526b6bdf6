#include "core/state_store.h"

#include "io/env.h"
#include "io/record_file.h"

namespace i2mr {

Status StateStore::Load() {
  map_.clear();
  if (!FileExists(path_)) return Status::OK();
  auto recs = ReadRecords(path_);
  if (!recs.ok()) return recs.status();
  for (auto& kv : *recs) map_[std::move(kv.key)] = std::move(kv.value);
  return Status::OK();
}

Status StateStore::Save() const {
  std::string tmp = path_ + ".tmp";
  auto w = RecordWriter::Create(tmp);
  if (!w.ok()) return w.status();
  for (const auto& [k, v] : map_) {
    I2MR_RETURN_IF_ERROR(w.value()->Add(k, v));
  }
  I2MR_RETURN_IF_ERROR(w.value()->Close());
  return RenameFile(tmp, path_);
}

}  // namespace i2mr
