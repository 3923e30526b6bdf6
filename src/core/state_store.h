// StateStore: the loop-variant state kv-pairs <DK, DV> of one partition,
// kept sorted by DK (matching the structure file's project(SK) order so the
// prime Map can merge-join them in one pass) and persisted to a local state
// file between iterations / jobs.
#ifndef I2MR_CORE_STATE_STORE_H_
#define I2MR_CORE_STATE_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/status.h"

namespace i2mr {

class StateStore {
 public:
  explicit StateStore(std::string path) : path_(std::move(path)) {}

  /// Load from the backing file if it exists (replaces current contents).
  Status Load();

  void Put(const std::string& dk, const std::string& dv) { map_[dk] = dv; }
  const std::string* Get(const std::string& dk) const {
    auto it = map_.find(dk);
    return it == map_.end() ? nullptr : &it->second;
  }
  void Erase(const std::string& dk) { map_.erase(dk); }
  void Clear() { map_.clear(); }

  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& items() const { return map_; }

  Status Save() const;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::string, std::string> map_;
};

}  // namespace i2mr

#endif  // I2MR_CORE_STATE_STORE_H_
