#include "core/iter_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "io/env.h"
#include "io/record_file.h"

namespace i2mr {
namespace {

std::string SpillFileName(int r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "part-%05d.dat", r);
  return buf;
}

std::string MapTaskDir(const std::string& job_dir, int m) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "map-%05d", m);
  return JoinPath(job_dir, buf);
}

// Sharded full iterations: emissions to keys another shard owns must not
// enter the local shuffle (they would reduce here as phantom keys shadowing
// the owner's result). Full re-computation re-derives the complete boundary
// set every iteration, so dropping — rather than capturing — is lossless;
// the incremental engine's tagged context does the capturing.
class OwnedKeyFilter : public MapContext {
 public:
  OwnedKeyFilter(MapContext* inner,
                 const std::function<bool(std::string_view)>* owns)
      : inner_(inner), owns_(owns) {}
  void Emit(std::string_view key, std::string_view value) override {
    if (!(*owns_)(key)) return;
    inner_->Emit(key, value);
  }

 private:
  MapContext* inner_;
  const std::function<bool(std::string_view)>* owns_;
};

}  // namespace

IterativeEngine::IterativeEngine(LocalCluster* cluster, IterJobSpec spec)
    : cluster_(cluster), spec_(std::move(spec)) {
  I2MR_CHECK(spec_.projector != nullptr);
  I2MR_CHECK(spec_.mapper != nullptr);
  I2MR_CHECK(spec_.reducer != nullptr);
  I2MR_CHECK(spec_.difference != nullptr);
  I2MR_CHECK(spec_.num_partitions > 0);
  // owns_key shards the computation by key; an all-to-one dependency has
  // global reduce state and cannot be split that way (route such apps to a
  // single shard instead).
  I2MR_CHECK(!spec_.owns_key ||
             spec_.projector->dep_type() != DepType::kAllToOne)
      << "owns_key is incompatible with all-to-one dependencies";
  structure_.resize(spec_.num_partitions);
  states_.resize(spec_.num_partitions);
  for (int p = 0; p < spec_.num_partitions; ++p) {
    states_[p] = std::make_unique<StateStore>(StatePath(p));
  }
}

std::string IterativeEngine::PartitionDir(int p) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/part-%03d", p);
  return JoinPath(cluster_->root(), "state/" + spec_.name + buf);
}

std::string IterativeEngine::StructurePath(int p) const {
  return JoinPath(PartitionDir(p), "structure.dat");
}

std::string IterativeEngine::StatePath(int p) const {
  return JoinPath(PartitionDir(p), "state.dat");
}

uint32_t IterativeEngine::PartitionOf(const std::string& key) const {
  return static_cast<uint32_t>(Hash64(key) % spec_.num_partitions);
}

Status IterativeEngine::Prepare(const std::vector<KV>& structure,
                                const std::vector<KV>& initial_state) {
  const int n = spec_.num_partitions;
  // Partition structure kv-pairs and group them by project(SK); each group
  // sorted by (SK, SV) gives the structure file's project(SK)-then-SK order,
  // so the prime Map can merge-join it with the DK-sorted state in one pass.
  structure_.assign(n, StructureGroups());
  for (const auto& kv : structure) {
    std::string dk = spec_.projector->Project(kv.key);
    uint32_t p = all_to_one() ? PartitionOf(kv.key) : PartitionOf(dk);
    structure_[p][std::move(dk)].push_back(kv);
  }
  for (int p = 0; p < n; ++p) {
    for (auto& [dk, recs] : structure_[p]) std::sort(recs.begin(), recs.end());
    I2MR_RETURN_IF_ERROR(ResetDir(PartitionDir(p)));
    I2MR_RETURN_IF_ERROR(WriteStructure(p));
  }
  // Partition (or replicate) state kv-pairs.
  for (int p = 0; p < n; ++p) states_[p]->Clear();
  for (const auto& kv : initial_state) {
    if (all_to_one()) {
      for (int p = 0; p < n; ++p) states_[p]->Put(kv.key, kv.value);
    } else {
      states_[PartitionOf(kv.key)]->Put(kv.key, kv.value);
    }
  }
  // Seed state entries for every structure-side DK so that state keys whose
  // reduce instance never receives values (e.g. vertices without in-links)
  // still exist and get rescored by reduce_untouched_keys.
  if (!all_to_one() && spec_.init_state) {
    for (int p = 0; p < n; ++p) {
      for (const auto& [dk, recs] : structure_[p]) {
        if (states_[p]->Get(dk) == nullptr) {
          states_[p]->Put(dk, spec_.init_state(dk));
        }
      }
    }
  }
  I2MR_RETURN_IF_ERROR(SaveStates());
  prepared_ = true;
  return Status::OK();
}

Status IterativeEngine::LoadExisting() {
  structure_.assign(spec_.num_partitions, StructureGroups());
  for (int p = 0; p < spec_.num_partitions; ++p) {
    if (!FileExists(StructurePath(p))) {
      return Status::NotFound("no structure file for partition " +
                              std::to_string(p));
    }
    I2MR_RETURN_IF_ERROR(ReadStructure(StructurePath(p), &structure_[p]));
    I2MR_RETURN_IF_ERROR(states_[p]->Load());
  }
  prepared_ = true;
  return Status::OK();
}

Status IterativeEngine::ReadStructure(const std::string& path,
                                      StructureGroups* groups) const {
  auto records = ReadRecords(path);
  if (!records.ok()) return records.status();
  groups->clear();
  auto group = groups->end();
  for (KV& kv : *records) {
    std::string dk = spec_.projector->Project(kv.key);
    // The file is in project(SK) order: a new group lands at the map's end.
    if (group == groups->end() || dk != group->first) {
      group = groups->try_emplace(groups->end(), std::move(dk));
    }
    group->second.push_back(std::move(kv));
  }
  return Status::OK();
}

Status IterativeEngine::WriteStructure(int p) const {
  auto w = RecordWriter::Create(StructurePath(p));
  if (!w.ok()) return w.status();
  for (const auto& [dk, recs] : structure_[p]) {
    for (const auto& kv : recs) I2MR_RETURN_IF_ERROR(w.value()->Add(kv));
  }
  return w.value()->Close();
}

Status IterativeEngine::SaveStates() {
  for (auto& s : states_) I2MR_RETURN_IF_ERROR(s->Save());
  return Status::OK();
}

StatusOr<std::string> IterativeEngine::StateValue(int p,
                                                  const std::string& dk) const {
  const std::string* dv = states_[p]->Get(dk);
  if (dv != nullptr) return *dv;
  if (spec_.init_state) return spec_.init_state(dk);
  return Status::NotFound("no state for DK " + dk);
}

Status IterativeEngine::ForEachStructureRecord(
    int p, const std::function<Status(const std::string&, const std::string&,
                                      const std::string&, const std::string&)>&
               fn) const {
  // Loop-invariant structure data stays parsed in memory across iterations
  // unless cache_parsed_structure is off (then: re-read per iteration).
  const StructureGroups* groups = &structure_[p];
  StructureGroups reread;
  if (!spec_.cache_parsed_structure) {
    I2MR_RETURN_IF_ERROR(ReadStructure(StructurePath(p), &reread));
    groups = &reread;
  }
  // One state lookup per DK group: the single-pass merge-join of §4.3.
  for (const auto& [dk, recs] : *groups) {
    auto dv = StateValue(p, dk);
    if (!dv.ok()) return dv.status();
    for (const KV& kv : recs) {
      I2MR_RETURN_IF_ERROR(fn(kv.key, kv.value, dk, *dv));
    }
  }
  return Status::OK();
}

Status IterativeEngine::ReplicateStateAllToOne() {
  if (!all_to_one()) return Status::OK();
  const int n = spec_.num_partitions;
  // Owner partition of each DK holds the authoritative post-reduce value.
  std::vector<KV> merged;
  std::set<std::string> seen;
  for (int p = 0; p < n; ++p) {
    for (const auto& [dk, dv] : states_[p]->items()) {
      if (!seen.insert(dk).second) continue;
      const std::string* owner_val =
          states_[PartitionOf(dk)]->Get(dk);
      merged.push_back(KV{dk, owner_val != nullptr ? *owner_val : dv});
    }
  }
  for (int p = 0; p < n; ++p) {
    for (const auto& kv : merged) states_[p]->Put(kv.key, kv.value);
  }
  return Status::OK();
}

StatusOr<IterationStats> IterativeEngine::RunFullIteration(int iter) {
  const int n = spec_.num_partitions;
  IterationStats stats;
  stats.iteration = iter;
  StageMetrics metrics;
  WallTimer wall;
  std::string job_dir =
      cluster_->ReserveJobDir(spec_.name + "-it" + std::to_string(iter));

  Partitioner hash_partitioner;
  // Per-iteration in-memory exchange (null = disk spills only).
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(spec_.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(n, spec_.shuffle_memory_bytes);
  }
  std::atomic<int64_t> map_instances{0};
  std::vector<Status> map_status(n);
  ParallelFor(cluster_->pool(), n, [&](int p) {
    map_status[p] = [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      auto mapper = spec_.mapper();
      ShuffleWriter writer(n, &hash_partitioner, MapTaskDir(job_dir, p),
                           exchange.get());
      OwnedKeyFilter filter(&writer, &spec_.owns_key);
      MapContext* ctx = spec_.owns_key ? static_cast<MapContext*>(&filter)
                                       : static_cast<MapContext*>(&writer);
      int64_t count = 0;
      {
        ScopedTimer t(&metrics.map_ns);
        mapper->Setup(ctx);
        I2MR_RETURN_IF_ERROR(ForEachStructureRecord(
            p, [&](const std::string& sk, const std::string& sv,
                   const std::string& dk, const std::string& dv) {
              mapper->Map(sk, sv, dk, dv, ctx);
              ++count;
              return Status::OK();
            }));
        mapper->Flush(ctx);
      }
      map_instances.fetch_add(count);
      metrics.map_input_records += count;
      return writer.Finish(nullptr, &metrics);
    }();
  });
  for (const auto& st : map_status) I2MR_RETURN_IF_ERROR(st);

  // Prime Reduce, co-located with the state partition: reduce task r owns
  // state partition r, so the updated state is written locally.
  std::vector<Status> reduce_status(n);
  std::atomic<int64_t> reduced_keys{0};
  std::mutex diff_mu;
  double total_diff = 0;
  ParallelFor(cluster_->pool(), n, [&](int r) {
    reduce_status[r] = [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      ShuffleReader::Source source;
      source.exchange = exchange.get();
      source.partition = r;
      for (int m = 0; m < n; ++m) {
        source.spill_files.push_back(
            JoinPath(MapTaskDir(job_dir, m), SpillFileName(r)));
      }
      auto reader = ShuffleReader::Open(source, cluster_->cost(), &metrics);
      if (!reader.ok()) return reader.status();
      auto reducer = spec_.reducer();
      double local_diff = 0;
      int64_t local_keys = 0;
      std::unordered_set<std::string> touched;
      // Cross-shard: DKs that hold routed-in remote values but may get no
      // local emission this iteration still need their reduce to run.
      std::vector<std::string> remote_only = RemoteOnlyKeys(r);
      std::unordered_set<std::string> remote_pending(remote_only.begin(),
                                                     remote_only.end());
      auto reduce_one = [&](const std::string& dk,
                            std::vector<std::string_view>* values) {
        AppendRemoteValues(r, dk, values);
        const std::string* prev = states_[r]->Get(dk);
        std::string prev_str = prev != nullptr ? *prev
                              : spec_.init_state ? spec_.init_state(dk)
                                                 : std::string();
        std::string next =
            reducer->Reduce(dk, *values, prev != nullptr ? prev : nullptr);
        local_diff += spec_.difference(next, prev_str);
        states_[r]->Put(dk, std::move(next));
        if (spec_.reduce_untouched_keys) touched.insert(dk);
        ++local_keys;
      };
      {
        ScopedTimer t(&metrics.reduce_ns);
        std::string_view dk_view;
        std::string dk;
        std::vector<std::string_view> values;
        while (reader.value()->NextGroup(&dk_view, &values)) {
          dk.assign(dk_view);
          remote_pending.erase(dk);
          reduce_one(dk, &values);
        }
        // Remote-only DKs, in the sorted order RemoteOnlyKeys returned.
        for (const auto& dk2 : remote_only) {
          if (remote_pending.count(dk2) == 0) continue;
          values.clear();
          reduce_one(dk2, &values);
        }
        if (spec_.reduce_untouched_keys) {
          std::vector<std::pair<std::string, std::string>> updates;
          for (const auto& [dk2, dv2] : states_[r]->items()) {
            if (touched.count(dk2) > 0) continue;
            std::string next = reducer->Reduce(dk2, {}, &dv2);
            local_diff += spec_.difference(next, dv2);
            updates.emplace_back(dk2, std::move(next));
            ++local_keys;
          }
          for (auto& [dk2, dv2] : updates) states_[r]->Put(dk2, std::move(dv2));
        }
      }
      reduced_keys.fetch_add(local_keys);
      {
        std::lock_guard<std::mutex> lock(diff_mu);
        total_diff += local_diff;
      }
      return Status::OK();
    }();
  });
  for (const auto& st : reduce_status) I2MR_RETURN_IF_ERROR(st);

  I2MR_RETURN_IF_ERROR(ReplicateStateAllToOne());
  if (FileExists(job_dir)) I2MR_RETURN_IF_ERROR(RemoveAll(job_dir));

  stats.wall_ms = wall.ElapsedMillis();
  stats.map_ms = metrics.map_ms();
  stats.shuffle_ms = metrics.shuffle_ms();
  stats.sort_ms = metrics.sort_ms();
  stats.reduce_ms = metrics.reduce_ms();
  stats.map_instances = map_instances.load();
  stats.shuffle_bytes = metrics.shuffle_bytes.load();
  stats.reduced_keys = reduced_keys.load();
  stats.propagated_pairs = reduced_keys.load();
  stats.total_diff = total_diff;
  return stats;
}

StatusOr<std::vector<IterationStats>> IterativeEngine::Run() {
  if (!prepared_) return Status::FailedPrecondition("call Prepare() first");
  cluster_->cost().ChargeJobStartup();  // jobs stay alive across iterations
  std::vector<IterationStats> all;
  for (int iter = 1; iter <= spec_.max_iterations; ++iter) {
    auto stats = RunFullIteration(iter);
    if (!stats.ok()) return stats.status();
    all.push_back(std::move(stats.value()));
    if (all.back().total_diff <= spec_.convergence_epsilon) break;
  }
  I2MR_RETURN_IF_ERROR(SaveStates());
  return all;
}

StatusOr<std::vector<KV>> IterativeEngine::StateSnapshot() const {
  std::vector<KV> out;
  VisitState([&](const std::string& dk, const std::string& dv) {
    out.push_back(KV{dk, dv});
  });
  return out;
}

void IterativeEngine::VisitState(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  // Every all-to-one partition holds a replica; partition 0 represents it.
  const size_t parts = all_to_one() ? 1 : states_.size();
  using Iter = std::map<std::string, std::string>::const_iterator;
  std::vector<std::pair<Iter, Iter>> cursors;
  for (size_t p = 0; p < parts; ++p) {
    const auto& items = states_[p]->items();
    if (!items.empty()) cursors.emplace_back(items.begin(), items.end());
  }
  // K-way merge in (DK, DV) order; partitions are few, so a linear scan
  // for the smallest head beats a heap.
  while (!cursors.empty()) {
    size_t min = 0;
    for (size_t c = 1; c < cursors.size(); ++c) {
      if (*cursors[c].first < *cursors[min].first) min = c;
    }
    fn(cursors[min].first->first, cursors[min].first->second);
    if (++cursors[min].first == cursors[min].second) {
      cursors.erase(cursors.begin() + min);
    }
  }
}

}  // namespace i2mr
