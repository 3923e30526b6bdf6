#include "baselines/spark_sim.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "io/env.h"
#include "io/record_file.h"

namespace i2mr {
namespace sparksim {
namespace {

size_t RecordBytes(const KV& kv) { return kv.key.size() + kv.value.size() + 16; }

}  // namespace

SparkSim::SparkSim(Options options) : options_(std::move(options)) {
  I2MR_CHECK(options_.num_partitions > 0);
  I2MR_CHECK(!options_.spill_dir.empty()) << "spill_dir required";
  I2MR_CHECK_OK(CreateDirs(options_.spill_dir));
}

void SparkSim::ForEachPartition(const std::function<void(int)>& fn) {
  if (options_.pool != nullptr) {
    ParallelFor(options_.pool, options_.num_partitions, fn);
  } else {
    for (int p = 0; p < options_.num_partitions; ++p) fn(p);
  }
}

StatusOr<DatasetPtr> SparkSim::MakeDataset(std::vector<std::vector<KV>> parts) {
  auto ds = std::make_shared<Dataset>();
  ds->parts_ = std::move(parts);
  size_t bytes = 0;
  for (const auto& part : ds->parts_) {
    for (const auto& kv : part) bytes += RecordBytes(kv);
  }
  ds->bytes_ = bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ds->id_ = next_id_++;
    registry_.push_back(ds);
  }
  I2MR_RETURN_IF_ERROR(EnforceBudget());
  return ds;
}

Status SparkSim::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  // Gather live datasets, oldest first.
  std::vector<DatasetPtr> live;
  size_t total = 0;
  for (const auto& weak : registry_) {
    auto ds = weak.lock();
    if (ds != nullptr && !ds->spilled_) {
      live.push_back(ds);
      total += ds->bytes_;
    }
  }
  std::sort(live.begin(), live.end(),
            [](const DatasetPtr& a, const DatasetPtr& b) {
              return a->id_ < b->id_;
            });
  for (const auto& ds : live) {
    if (total <= options_.memory_budget_bytes) break;
    I2MR_RETURN_IF_ERROR(Spill(ds.get()));
    total -= ds->bytes_;
  }
  return Status::OK();
}

Status SparkSim::Spill(Dataset* ds) {
  ds->spill_paths_.resize(ds->parts_.size());
  for (size_t p = 0; p < ds->parts_.size(); ++p) {
    std::string path = JoinPath(
        options_.spill_dir,
        "rdd-" + std::to_string(ds->id_) + "-p" + std::to_string(p) + ".dat");
    I2MR_RETURN_IF_ERROR(WriteRecords(path, ds->parts_[p]));
    ds->spill_paths_[p] = path;
  }
  stats_.spill_events += 1;
  stats_.spilled_bytes += ds->bytes_;
  ds->parts_.clear();
  ds->parts_.shrink_to_fit();
  ds->spilled_ = true;
  return Status::OK();
}

StatusOr<std::vector<KV>> SparkSim::LoadPart(const DatasetPtr& ds, int p) {
  if (!ds->spilled_) return ds->parts_[p];
  auto recs = ReadRecords(ds->spill_paths_[p]);
  if (!recs.ok()) return recs.status();
  size_t bytes = 0;
  for (const auto& kv : *recs) bytes += RecordBytes(kv);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.disk_read_bytes += bytes;
  }
  return recs;
}

StatusOr<DatasetPtr> SparkSim::Parallelize(const std::vector<KV>& records) {
  std::vector<std::vector<KV>> parts(options_.num_partitions);
  for (const auto& kv : records) {
    parts[Hash64(kv.key) % options_.num_partitions].push_back(kv);
  }
  return MakeDataset(std::move(parts));
}

StatusOr<DatasetPtr> SparkSim::FlatMap(
    const DatasetPtr& in,
    const std::function<void(const KV&, std::vector<KV>*)>& fn) {
  const int n = options_.num_partitions;
  std::vector<std::vector<std::vector<KV>>> out(n);  // [src][dst]
  std::vector<Status> statuses(n);
  ForEachPartition([&](int p) {
    out[p].resize(n);
    auto recs = LoadPart(in, p);
    if (!recs.ok()) {
      statuses[p] = recs.status();
      return;
    }
    std::vector<KV> emitted;
    for (const auto& kv : *recs) {
      emitted.clear();
      fn(kv, &emitted);
      for (auto& e : emitted) {
        out[p][Hash64(e.key) % n].push_back(std::move(e));
      }
    }
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  std::vector<std::vector<KV>> parts(n);
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < n; ++d) {
      parts[d].insert(parts[d].end(),
                      std::make_move_iterator(out[p][d].begin()),
                      std::make_move_iterator(out[p][d].end()));
    }
  }
  return MakeDataset(std::move(parts));
}

StatusOr<DatasetPtr> SparkSim::JoinFlatMap(
    const DatasetPtr& left, const DatasetPtr& right,
    const std::function<void(const std::string&, const std::string&,
                             const std::string&, std::vector<KV>*)>& fn) {
  const int n = options_.num_partitions;
  std::vector<std::vector<std::vector<KV>>> out(n);
  std::vector<Status> statuses(n);
  ForEachPartition([&](int p) {
    out[p].resize(n);
    auto lrecs = LoadPart(left, p);
    auto rrecs = LoadPart(right, p);
    if (!lrecs.ok() || !rrecs.ok()) {
      statuses[p] = lrecs.ok() ? rrecs.status() : lrecs.status();
      return;
    }
    std::unordered_map<std::string, const std::string*> rmap;
    rmap.reserve(rrecs->size());
    for (const auto& kv : *rrecs) rmap[kv.key] = &kv.value;
    std::vector<KV> emitted;
    for (const auto& kv : *lrecs) {
      auto it = rmap.find(kv.key);
      if (it == rmap.end()) continue;
      emitted.clear();
      fn(kv.key, kv.value, *it->second, &emitted);
      for (auto& e : emitted) {
        out[p][Hash64(e.key) % n].push_back(std::move(e));
      }
    }
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  std::vector<std::vector<KV>> parts(n);
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < n; ++d) {
      parts[d].insert(parts[d].end(),
                      std::make_move_iterator(out[p][d].begin()),
                      std::make_move_iterator(out[p][d].end()));
    }
  }
  return MakeDataset(std::move(parts));
}

StatusOr<DatasetPtr> SparkSim::ReduceByKey(
    const DatasetPtr& in,
    const std::function<std::string(const std::string&, const std::string&)>&
        fn) {
  const int n = options_.num_partitions;
  std::vector<std::vector<KV>> parts(n);
  std::vector<Status> statuses(n);
  ForEachPartition([&](int p) {
    auto recs = LoadPart(in, p);
    if (!recs.ok()) {
      statuses[p] = recs.status();
      return;
    }
    std::unordered_map<std::string, std::string> agg;
    for (const auto& kv : *recs) {
      auto [it, inserted] = agg.emplace(kv.key, kv.value);
      if (!inserted) it->second = fn(it->second, kv.value);
    }
    parts[p].reserve(agg.size());
    for (auto& [k, v] : agg) parts[p].push_back(KV{k, std::move(v)});
    std::sort(parts[p].begin(), parts[p].end());
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  return MakeDataset(std::move(parts));
}

StatusOr<std::vector<KV>> SparkSim::Collect(const DatasetPtr& in) {
  std::vector<KV> all;
  for (int p = 0; p < options_.num_partitions; ++p) {
    auto recs = LoadPart(in, p);
    if (!recs.ok()) return recs.status();
    all.insert(all.end(), recs->begin(), recs->end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace sparksim
}  // namespace i2mr
