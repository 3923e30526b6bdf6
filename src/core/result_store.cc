#include "core/result_store.h"

#include "common/codec.h"
#include "io/env.h"

namespace i2mr {

StatusOr<ResultStore> ResultStore::Open(const std::string& path) {
  ResultStore store(path);
  if (!FileExists(path)) return store;
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  Decoder dec(*data);
  uint64_t n_results, n_inst;
  if (!dec.GetFixed64(&n_results)) return Status::Corruption("bad result store");
  for (uint64_t i = 0; i < n_results; ++i) {
    std::string k, v;
    if (!dec.GetLengthPrefixed(&k) || !dec.GetLengthPrefixed(&v)) {
      return Status::Corruption("bad result entry");
    }
    store.results_[std::move(k)] = std::move(v);
  }
  if (!dec.GetFixed64(&n_inst)) return Status::Corruption("bad result store");
  for (uint64_t i = 0; i < n_inst; ++i) {
    std::string k2;
    uint32_t m;
    if (!dec.GetLengthPrefixed(&k2) || !dec.GetFixed32(&m)) {
      return Status::Corruption("bad instance entry");
    }
    std::vector<std::string> k3s(m);
    for (uint32_t j = 0; j < m; ++j) {
      if (!dec.GetLengthPrefixed(&k3s[j])) {
        return Status::Corruption("bad instance k3");
      }
    }
    store.by_inst_[std::move(k2)] = std::move(k3s);
  }
  return store;
}

void ResultStore::SetInstanceOutputs(const std::string& k2,
                                     const std::vector<KV>& outputs) {
  EraseInstance(k2);
  std::vector<std::string> k3s;
  k3s.reserve(outputs.size());
  for (const auto& kv : outputs) {
    results_[kv.key] = kv.value;
    k3s.push_back(kv.key);
  }
  by_inst_[k2] = std::move(k3s);
}

void ResultStore::EraseInstance(const std::string& k2) {
  auto it = by_inst_.find(k2);
  if (it == by_inst_.end()) return;
  for (const auto& k3 : it->second) results_.erase(k3);
  by_inst_.erase(it);
}

void ResultStore::Put(const std::string& k3, const std::string& v3) {
  // Puts in key order (a store built from sorted state) append in O(1).
  if (results_.empty() || results_.rbegin()->first < k3) {
    results_.emplace_hint(results_.end(), k3, v3);
    return;
  }
  results_[k3] = v3;
}

const std::string* ResultStore::Get(const std::string& k3) const {
  auto it = results_.find(k3);
  return it == results_.end() ? nullptr : &it->second;
}

std::vector<KV> ResultStore::Snapshot() const {
  std::vector<KV> out;
  out.reserve(results_.size());
  for (const auto& [k, v] : results_) out.push_back(KV{k, v});
  return out;
}

void ResultStore::VisitRange(const std::string& begin, const std::string& end,
                             const std::function<bool(const KV&)>& fn) const {
  auto it = results_.lower_bound(begin);
  auto stop = end.empty() ? results_.end() : results_.lower_bound(end);
  for (; it != stop; ++it) {
    if (!fn(KV{it->first, it->second})) return;
  }
}

Status ResultStore::SaveAs(const std::string& path) const {
  std::string buf;
  PutFixed64(&buf, results_.size());
  for (const auto& [k, v] : results_) {
    PutLengthPrefixed(&buf, k);
    PutLengthPrefixed(&buf, v);
  }
  PutFixed64(&buf, by_inst_.size());
  for (const auto& [k2, k3s] : by_inst_) {
    PutLengthPrefixed(&buf, k2);
    PutFixed32(&buf, static_cast<uint32_t>(k3s.size()));
    for (const auto& k3 : k3s) PutLengthPrefixed(&buf, k3);
  }
  return ReplaceFileDurably(path, buf, /*sync=*/false);
}

}  // namespace i2mr
