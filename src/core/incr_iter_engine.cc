#include "core/incr_iter_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/delta.h"
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

// MapContext tagging emissions with (MK, op) for MRBGraph maintenance.
// In a sharded deployment (spec.owns_key set), emissions to keys another
// shard owns are captured into `boundary` as DeltaEdges — the same
// replace/delete-by-(K2, MK) units the MRBGraph merge applies — instead of
// entering the local shuffle, so the exchange can route them to the owner.
class TaggingMapContext : public MapContext {
 public:
  TaggingMapContext(MapContext* inner,
                    const std::function<bool(std::string_view)>* owns,
                    std::vector<DeltaEdge>* boundary)
      : inner_(inner), owns_(owns), boundary_(boundary) {}
  void Begin(uint64_t mk, bool deleted) {
    mk_ = mk;
    deleted_ = deleted;
  }
  void Emit(std::string_view key, std::string_view value) override {
    if (owns_ != nullptr && *owns_ && !(*owns_)(key)) {
      DeltaEdge e;
      e.k2.assign(key);
      e.mk = mk_;
      e.deleted = deleted_;
      if (!deleted_) e.v2.assign(value);
      boundary_->push_back(std::move(e));
      return;
    }
    inner_->Emit(key, EncodeEdgeValue(mk_, deleted_,
                                      deleted_ ? std::string_view() : value));
  }

 private:
  MapContext* inner_;
  const std::function<bool(std::string_view)>* owns_;
  std::vector<DeltaEdge>* boundary_;
  uint64_t mk_ = 0;
  bool deleted_ = false;
};

}  // namespace

IncrementalIterativeEngine::IncrementalIterativeEngine(LocalCluster* cluster,
                                                       IterJobSpec spec,
                                                       IncrIterOptions options)
    : IterativeEngine(cluster, std::move(spec)), options_(std::move(options)) {}

std::string IncrementalIterativeEngine::MrbgDir(int r) const {
  return JoinPath(PartitionDir(r), "mrbg");
}

bool IncrementalIterativeEngine::ShouldFail(int iter, TaskId::Kind kind,
                                            int p) {
  if (!options_.fail_hook) return false;
  std::string key = std::to_string(iter) + ":" +
                    (kind == TaskId::Kind::kMap ? "m" : "r") + ":" +
                    std::to_string(p);
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (failed_once_.count(key) > 0) return false;
  if (!options_.fail_hook(iter, kind, p)) return false;
  failed_once_.insert(key);
  return true;
}

// ---------------------------------------------------------------------------
// Structure maintenance
// ---------------------------------------------------------------------------

Status IncrementalIterativeEngine::ApplyStructureDelta(
    const std::vector<std::vector<DeltaKV>>& per_part) {
  for (int p = 0; p < spec_.num_partitions; ++p) {
    // In log order, against the resident groups: a delete also finds a
    // record inserted earlier in the same batch.
    auto& groups = structure_[p];
    bool dirty = false;
    for (const auto& d : per_part[p]) {
      KV kv{d.key, d.value};
      std::string dk = spec_.projector->Project(d.key);
      if (d.op == DeltaOp::kInsert) {
        auto& recs = groups[std::move(dk)];
        recs.insert(std::upper_bound(recs.begin(), recs.end(), kv),
                    std::move(kv));
        dirty = true;
        continue;
      }
      auto group = groups.find(dk);
      if (group != groups.end()) {
        auto& recs = group->second;
        auto it = std::lower_bound(recs.begin(), recs.end(), kv);
        if (it != recs.end() && *it == kv) {
          recs.erase(it);
          if (recs.empty()) groups.erase(group);
          dirty = true;
          continue;
        }
      }
      LOG_WARN << "delta deletes unknown structure record sk=" << d.key;
    }
    if (dirty) I2MR_RETURN_IF_ERROR(WriteStructure(p));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MRBGraph preservation / store lifecycle
// ---------------------------------------------------------------------------

Status IncrementalIterativeEngine::OpenStores() {
  if (!stores_.empty()) return Status::OK();  // resident across refreshes
  stores_.resize(spec_.num_partitions);
  for (int r = 0; r < spec_.num_partitions; ++r) {
    auto s = MRBGStore::Open(MrbgDir(r), options_.store_options);
    if (!s.ok()) return s.status();
    stores_[r] = std::move(s.value());
  }
  return Status::OK();
}

Status IncrementalIterativeEngine::CloseStores(IncrIterRunStats* stats) {
  for (auto& s : stores_) {
    if (s == nullptr) continue;
    if (stats != nullptr) {
      MRBGStoreStats ss = s->stats();
      stats->store_io_reads += ss.io_reads;
      stats->store_bytes_read += ss.bytes_read;
    }
    I2MR_RETURN_IF_ERROR(s->PersistIndex());
    I2MR_RETURN_IF_ERROR(s->Close());
  }
  stores_.clear();
  return Status::OK();
}

Status IncrementalIterativeEngine::CollectStoreStats(IncrIterRunStats* stats) {
  for (auto& s : stores_) {
    if (s == nullptr) continue;
    MRBGStoreStats ss = s->stats();
    if (stats != nullptr) {
      stats->store_io_reads += ss.io_reads;
      stats->store_bytes_read += ss.bytes_read;
    }
    s->ResetStats();
    I2MR_RETURN_IF_ERROR(s->PersistIndex());
  }
  return Status::OK();
}

Status IncrementalIterativeEngine::CompactMRBGraph() {
  const bool were_open = !stores_.empty();
  if (!were_open) I2MR_RETURN_IF_ERROR(OpenStores());
  std::vector<Status> statuses(spec_.num_partitions);
  ParallelFor(cluster_->pool(), spec_.num_partitions, [&](int r) {
    statuses[r] = stores_[r] != nullptr ? stores_[r]->Compact() : Status::OK();
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  if (!were_open) I2MR_RETURN_IF_ERROR(CloseStores(nullptr));
  return Status::OK();
}

StatusOr<uint64_t> IncrementalIterativeEngine::MrbgFileBytes() const {
  uint64_t total = 0;
  for (int r = 0; r < spec_.num_partitions; ++r) {
    if (static_cast<size_t>(r) < stores_.size() && stores_[r] != nullptr) {
      total += stores_[r]->file_bytes();
      continue;
    }
    auto files = MRBGStore::ListStoreFiles(MrbgDir(r));
    if (!files.ok()) return files.status();
    for (const auto& path : *files) {
      // Data footprint only: skip the MANIFEST metadata.
      if (path.size() >= 8 &&
          path.compare(path.size() - 8, 8, "MANIFEST") == 0) {
        continue;
      }
      if (!FileExists(path)) continue;
      auto sz = FileSize(path);
      if (!sz.ok()) return sz.status();
      total += *sz;
    }
  }
  return total;
}

Status IncrementalIterativeEngine::SnapshotMrbgPartition(
    int p, const std::string& dst_dir, std::vector<std::string>* files) {
  if (static_cast<size_t>(p) < stores_.size() && stores_[p] != nullptr) {
    return stores_[p]->SnapshotInto(dst_dir, files);
  }
  auto src = MRBGStore::ListStoreFiles(MrbgDir(p));
  if (!src.ok()) return src.status();
  if (src->empty()) return Status::OK();
  I2MR_RETURN_IF_ERROR(CreateDirs(dst_dir));
  for (const auto& path : *src) {
    size_t slash = path.find_last_of('/');
    std::string dst = JoinPath(
        dst_dir, slash == std::string::npos ? path : path.substr(slash + 1));
    I2MR_RETURN_IF_ERROR(LinkOrCopyFile(path, dst));
    if (files != nullptr) files->push_back(dst);
  }
  return Status::OK();
}

Status IncrementalIterativeEngine::PreserveMRBGraph(double* elapsed_ms) {
  TRACE_SPAN("engine.preserve", "job=%s", spec_.name.c_str());
  WallTimer timer;
  const int n = spec_.num_partitions;
  std::string job_dir = cluster_->ReserveJobDir(spec_.name + "-preserve");
  StageMetrics metrics;
  Partitioner hash_partitioner;
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(spec_.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(n, spec_.shuffle_memory_bytes);
  }

  std::vector<Status> map_status(n);
  ParallelFor(cluster_->pool(), n, [&](int p) {
    map_status[p] = [&]() -> Status {
      auto mapper = spec_.mapper();
      ShuffleWriter writer(n, &hash_partitioner, MapTaskDir(job_dir, p),
                           exchange.get());
      // The preservation pass re-maps every live structure record, so the
      // captured boundary set is the complete current export of this shard
      // (merged keep-latest into the pending exports; deletions captured by
      // earlier incremental iterations are preserved for removed MKs).
      std::vector<DeltaEdge> boundary;
      TaggingMapContext ctx(&writer, &spec_.owns_key, &boundary);
      ctx.Begin(Hash64("__setup__"), false);
      mapper->Setup(&ctx);
      I2MR_RETURN_IF_ERROR(ForEachStructureRecord(
          p, [&](const std::string& sk, const std::string& sv,
                 const std::string& dk, const std::string& dv) {
            ctx.Begin(MapInstanceKey(sk, sv), false);
            mapper->Map(sk, sv, dk, dv, &ctx);
            return Status::OK();
          }));
      ctx.Begin(Hash64("__flush__"), false);
      mapper->Flush(&ctx);
      MergeBoundaryExports(std::move(boundary));
      return writer.Finish(nullptr, &metrics);
    }();
  });
  for (const auto& st : map_status) I2MR_RETURN_IF_ERROR(st);

  std::vector<Status> reduce_status(n);
  ParallelFor(cluster_->pool(), n, [&](int r) {
    reduce_status[r] = [&]() -> Status {
      I2MR_RETURN_IF_ERROR(ResetDir(MrbgDir(r)));
      auto store = MRBGStore::Open(MrbgDir(r), options_.store_options);
      if (!store.ok()) return store.status();
      ShuffleReader::Source source;
      source.exchange = exchange.get();
      source.partition = r;
      for (int m = 0; m < n; ++m) {
        source.spill_files.push_back(
            JoinPath(MapTaskDir(job_dir, m), SpillFileName(r)));
      }
      auto reader = ShuffleReader::Open(source, cluster_->cost(), &metrics);
      if (!reader.ok()) return reader.status();
      std::string_view key;
      std::vector<std::string_view> values;
      while (reader.value()->NextGroup(&key, &values)) {
        Chunk chunk;
        chunk.key.assign(key);
        chunk.entries.reserve(values.size());
        for (const auto& enc : values) {
          DeltaEdge e;
          I2MR_RETURN_IF_ERROR(DecodeEdgeValue(enc, &e));
          chunk.entries.push_back(ChunkEntry{e.mk, std::move(e.v2)});
        }
        I2MR_RETURN_IF_ERROR(store.value()->AppendChunk(chunk));
      }
      I2MR_RETURN_IF_ERROR(store.value()->FinishBatch());
      return store.value()->Close();
    }();
  });
  for (const auto& st : reduce_status) I2MR_RETURN_IF_ERROR(st);

  if (FileExists(job_dir)) I2MR_RETURN_IF_ERROR(RemoveAll(job_dir));
  mrbg_consistent_ = true;
  if (elapsed_ms != nullptr) *elapsed_ms = timer.ElapsedMillis();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checkpointing and recovery (§6.1)
// ---------------------------------------------------------------------------

Status IncrementalIterativeEngine::Checkpoint(int iteration) {
  I2MR_RETURN_IF_ERROR(SaveStates());
  Dfs* dfs = cluster_->dfs();
  std::string base = spec_.name + "/it" + std::to_string(iteration);
  for (int p = 0; p < spec_.num_partitions; ++p) {
    std::string tag = "-p" + std::to_string(p);
    I2MR_RETURN_IF_ERROR(
        dfs->CheckpointIn(StatePath(p), base + "/state" + tag));
    if (stores_.size() > static_cast<size_t>(p) && stores_[p] != nullptr) {
      // Flush pending appends so the on-disk files are complete.
      I2MR_RETURN_IF_ERROR(stores_[p]->FinishBatch());
      // Cut a frozen hard-link image (the segment set can change under a
      // background compaction pass) and checkpoint its files, plus a small
      // list naming them so the restore knows the file set.
      std::string tmp = MrbgDir(p) + ".ckpt";
      I2MR_RETURN_IF_ERROR(ResetDir(tmp));
      std::vector<std::string> files;
      I2MR_RETURN_IF_ERROR(stores_[p]->SnapshotInto(tmp, &files));
      std::string list;
      for (const auto& f : files) {
        size_t slash = f.find_last_of('/');
        std::string name = slash == std::string::npos ? f : f.substr(slash + 1);
        list += name + "\n";
        I2MR_RETURN_IF_ERROR(
            dfs->CheckpointIn(f, base + "/mrbg-" + name + tag));
      }
      std::string list_path = JoinPath(tmp, "mrbg.list");
      I2MR_RETURN_IF_ERROR(WriteStringToFile(list_path, list));
      I2MR_RETURN_IF_ERROR(
          dfs->CheckpointIn(list_path, base + "/mrbg.list" + tag));
      I2MR_RETURN_IF_ERROR(RemoveAll(tmp));
    }
  }
  return Status::OK();
}

Status IncrementalIterativeEngine::RestorePartition(int iteration,
                                                    int partition) {
  Dfs* dfs = cluster_->dfs();
  std::string base = spec_.name + "/it" + std::to_string(iteration);
  std::string tag = "-p" + std::to_string(partition);
  if (!dfs->CheckpointExists(base + "/state" + tag)) {
    return Status::NotFound("no checkpoint for iteration " +
                            std::to_string(iteration));
  }
  I2MR_RETURN_IF_ERROR(
      dfs->CheckpointOut(base + "/state" + tag, StatePath(partition)));
  I2MR_RETURN_IF_ERROR(states_[partition]->Load());
  bool have_store = stores_.size() > static_cast<size_t>(partition) &&
                    stores_[partition] != nullptr;
  if (have_store && dfs->CheckpointExists(base + "/mrbg.list" + tag)) {
    // Wipe the partition's store directory and repopulate it with the
    // checkpointed file set (the list names them).
    std::string dir = MrbgDir(partition);
    I2MR_RETURN_IF_ERROR(stores_[partition]->Close());
    stores_[partition].reset();
    I2MR_RETURN_IF_ERROR(ResetDir(dir));
    std::string list_path = JoinPath(dir, "mrbg.list");
    I2MR_RETURN_IF_ERROR(
        dfs->CheckpointOut(base + "/mrbg.list" + tag, list_path));
    auto list = ReadFileToString(list_path);
    if (!list.ok()) return list.status();
    size_t pos = 0;
    while (pos < list->size()) {
      size_t nl = list->find('\n', pos);
      if (nl == std::string::npos) nl = list->size();
      std::string name = list->substr(pos, nl - pos);
      pos = nl + 1;
      if (name.empty()) continue;
      I2MR_RETURN_IF_ERROR(dfs->CheckpointOut(base + "/mrbg-" + name + tag,
                                              JoinPath(dir, name)));
    }
    I2MR_RETURN_IF_ERROR(RemoveAll(list_path));
    auto s = MRBGStore::Open(dir, options_.store_options);
    if (!s.ok()) return s.status();
    stores_[partition] = std::move(s.value());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Incremental iterations
// ---------------------------------------------------------------------------

StatusOr<IterationStats> IncrementalIterativeEngine::RunIncrIteration(
    int iter, std::vector<PartitionCtx>* ctxs,
    const std::vector<std::vector<DeltaKV>>* struct_delta,
    IncrIterRunStats* run_stats) {
  const int n = spec_.num_partitions;
  TRACE_SPAN("engine.iteration", "job=%s iter=%d", spec_.name.c_str(), iter);
  IterationStats stats;
  stats.iteration = iter;
  StageMetrics metrics;
  WallTimer wall;
  std::string job_dir =
      cluster_->ReserveJobDir(spec_.name + "-incr-it" + std::to_string(iter));
  Partitioner hash_partitioner;
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(spec_.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(n, spec_.shuffle_memory_bytes);
  }

  // Take this iteration's delta-state inputs out of the contexts (the
  // reduce phase below refills them for the next iteration).
  std::vector<FlatKVRun> cur_delta(n);
  FlatKVRun shared_delta;  // all-to-one broadcast
  if (struct_delta == nullptr) {
    for (int p = 0; p < n; ++p) {
      cur_delta[p] = std::move((*ctxs)[p].delta_state);
      (*ctxs)[p].delta_state = FlatKVRun();
    }
    if (all_to_one()) {
      for (const auto& d : cur_delta) shared_delta.AppendRun(d);
    }
  }

  std::mutex recovery_mu;
  auto run_with_recovery = [&](TaskId::Kind kind, int p,
                               const std::function<Status()>& task) -> Status {
    if (ShouldFail(iter, kind, p)) {
      WallTimer rt;
      Status rst = RestorePartition(iter, p);
      if (!rst.ok() && !rst.IsNotFound()) return rst;
      std::lock_guard<std::mutex> lock(recovery_mu);
      run_stats->recoveries.push_back(
          RecoveryEvent{iter, kind, p, rt.ElapsedMillis()});
    }
    return task();
  };

  // -- Incremental prime Map ------------------------------------------------
  std::atomic<int64_t> map_instances{0};
  std::vector<Status> map_status(n);
  trace::ScopedSpan map_stage_span("stage.map", "iter=%d", iter);
  ParallelFor(cluster_->pool(), n, [&](int p) {
    map_status[p] = run_with_recovery(TaskId::Kind::kMap, p, [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      auto mapper = spec_.mapper();
      ShuffleWriter writer(n, &hash_partitioner, MapTaskDir(job_dir, p),
                           exchange.get());
      std::vector<DeltaEdge> boundary;
      TaggingMapContext ctx(&writer, &spec_.owns_key, &boundary);
      int64_t count = 0;
      TRACE_SPAN("task.map", "part=%d iter=%d", p, iter);
      ScopedTimer t(&metrics.map_ns);
      ctx.Begin(Hash64("__setup__"), false);
      mapper->Setup(&ctx);

      if (struct_delta != nullptr) {
        // Iteration 1: the delta input is the delta structure data (§5.1).
        for (const auto& d : (*struct_delta)[p]) {
          std::string dk = spec_.projector->Project(d.key);
          auto dv = StateValue(p, dk);
          if (!dv.ok()) return dv.status();
          ctx.Begin(MapInstanceKey(d.key, d.value), d.op == DeltaOp::kDelete);
          mapper->Map(d.key, d.value, dk, *dv, &ctx);
          ++count;
        }
      } else {
        // Iteration j >= 2: the delta input is the delta state data. Re-run
        // the Map instances of every structure kv-pair interdependent with a
        // changed state kv-pair. The deltas live in a flat arena and probe
        // the resident DK groups as views; dk and dv materialize (into
        // reused buffers) only on a hit.
        const FlatKVRun& deltas = all_to_one() ? shared_delta : cur_delta[p];
        const StructureGroups& groups = structure_[p];
        std::string dk, dv;
        for (size_t di = 0; di < deltas.size(); ++di) {
          auto group = groups.find(deltas.key(di));
          if (group == groups.end()) continue;
          dk.assign(deltas.key(di));
          dv.assign(deltas.value(di));
          for (const KV& rec : group->second) {
            ctx.Begin(MapInstanceKey(rec.key, rec.value), false);
            mapper->Map(rec.key, rec.value, dk, dv, &ctx);
            ++count;
          }
        }
      }
      ctx.Begin(Hash64("__flush__"), false);
      mapper->Flush(&ctx);
      MergeBoundaryExports(std::move(boundary));
      map_instances.fetch_add(count);
      metrics.map_input_records += count;
      return writer.Finish(nullptr, &metrics);
    });
  });
  map_stage_span.End();
  for (const auto& st : map_status) I2MR_RETURN_IF_ERROR(st);

  // -- Incremental prime Reduce (merge against preserved MRBGraph) ----------
  std::vector<Status> reduce_status(n);
  std::atomic<int64_t> reduced_keys{0};
  std::atomic<int64_t> merge_ns{0};
  std::mutex diff_mu;
  double total_diff = 0;
  trace::ScopedSpan reduce_stage_span("stage.reduce", "iter=%d", iter);
  ParallelFor(cluster_->pool(), n, [&](int r) {
    reduce_status[r] = run_with_recovery(TaskId::Kind::kReduce, r,
                                         [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      TRACE_SPAN("task.reduce", "part=%d iter=%d", r, iter);
      ShuffleReader::Source source;
      source.exchange = exchange.get();
      source.partition = r;
      for (int m = 0; m < n; ++m) {
        source.spill_files.push_back(
            JoinPath(MapTaskDir(job_dir, m), SpillFileName(r)));
      }
      auto reader = ShuffleReader::Open(source, cluster_->cost(), &metrics);
      if (!reader.ok()) return reader.status();

      // Group the delta MRBGraph. The group key is the edges' K2, so each
      // DeltaEdge leaves its k2 empty (MergeGroup takes K2 separately).
      std::vector<std::pair<std::string, std::vector<DeltaEdge>>> groups;
      {
        std::string_view key;
        std::vector<std::string_view> values;
        while (reader.value()->NextGroup(&key, &values)) {
          std::vector<DeltaEdge> edges(values.size());
          for (size_t i = 0; i < values.size(); ++i) {
            I2MR_RETURN_IF_ERROR(DecodeEdgeValue(values[i], &edges[i]));
          }
          groups.emplace_back(std::string(key), std::move(edges));
        }
      }
      // Iteration 1: force reduce instances of brand-new DKs (inserted
      // structure records whose state kv-pair does not exist yet). The
      // groups from the shuffle are already sorted; the forced stragglers
      // are sorted on their own and folded in with one stable merge
      // instead of hashing into a std::set and re-sorting everything.
      if (struct_delta != nullptr && !(*ctxs)[r].forced_dks.empty()) {
        std::unordered_set<std::string_view> present;
        present.reserve(groups.size());
        for (const auto& [k, _] : groups) present.insert(k);
        std::vector<std::string> missing;
        for (const auto& dk : (*ctxs)[r].forced_dks) {
          if (present.count(dk) == 0) missing.push_back(dk);
        }
        if (!missing.empty()) {
          std::sort(missing.begin(), missing.end());
          missing.erase(std::unique(missing.begin(), missing.end()),
                        missing.end());
          size_t mid = groups.size();
          groups.reserve(groups.size() + missing.size());
          for (auto& dk : missing) {
            groups.emplace_back(std::move(dk), std::vector<DeltaEdge>());
          }
          std::inplace_merge(
              groups.begin(), groups.begin() + mid, groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
        }
        (*ctxs)[r].forced_dks.clear();
      }

      MRBGStore* store = stores_[r].get();
      std::vector<std::string> keys;
      keys.reserve(groups.size());
      for (const auto& [k, _] : groups) keys.push_back(k);
      {
        TRACE_SPAN("task.mrbg_load", "part=%d groups=%zu", r, groups.size());
        I2MR_RETURN_IF_ERROR(store->PrepareQueries(keys));
      }

      auto reducer = spec_.reducer();
      auto& ctxr = (*ctxs)[r];
      double local_diff = 0;
      {
        ScopedTimer t(&metrics.reduce_ns);
        // Reused across groups: the merged chunk keeps its entry strings'
        // capacity, and the reducer reads its values as views into it.
        Chunk merged;
        std::vector<std::string_view> values;
        std::string init;
        for (const auto& [dk, edges] : groups) {
          {
            ScopedTimer mt(&merge_ns);
            I2MR_RETURN_IF_ERROR(store->MergeGroup(dk, edges, &merged));
          }
          values.clear();
          for (const auto& e : merged.entries) values.push_back(e.v2);
          // Cross-shard: the reduce input is the union of the preserved
          // local MRBGraph values and the routed-in remote edges.
          AppendRemoteValues(r, dk, &values);

          // The previous state, or the initial one for a new DK; stays
          // valid until the Put below.
          const std::string* prev = states_[r]->Get(dk);
          const std::string* prev_or_init = prev;
          if (prev == nullptr) {
            init = spec_.init_state ? spec_.init_state(dk) : std::string();
            prev_or_init = &init;
          }
          std::string next = reducer->Reduce(dk, values, prev);
          local_diff += spec_.difference(next, *prev_or_init);

          // Change propagation control (§5.3): accumulate changes since the
          // last emission; emit only when above the filter threshold.
          bool emit;
          if (options_.filter_threshold < 0) {
            emit = true;  // CPC disabled: always propagate
          } else {
            auto last_it = ctxr.last_emitted.find(dk);
            const std::string& last = last_it != ctxr.last_emitted.end()
                                          ? last_it->second
                                          : *prev_or_init;
            double accumulated = spec_.difference(next, last);
            emit = accumulated > options_.filter_threshold;
          }
          if (emit) {
            ctxr.delta_state.Append(dk, next);
            ctxr.last_emitted[dk] = next;
          }
          states_[r]->Put(dk, std::move(next));
          reduced_keys.fetch_add(1);
        }
      }
      // Defer index persistence to the end of the refresh job (checkpoints
      // persist explicitly when enabled).
      I2MR_RETURN_IF_ERROR(store->FinishBatch(/*persist_index=*/false));
      {
        std::lock_guard<std::mutex> lock(diff_mu);
        total_diff += local_diff;
      }
      return Status::OK();
    });
  });
  reduce_stage_span.End();
  for (const auto& st : reduce_status) I2MR_RETURN_IF_ERROR(st);

  I2MR_RETURN_IF_ERROR(ReplicateStateAllToOne());
  if (FileExists(job_dir)) I2MR_RETURN_IF_ERROR(RemoveAll(job_dir));

  int64_t propagated = 0;
  for (int p = 0; p < n; ++p) {
    propagated += static_cast<int64_t>((*ctxs)[p].delta_state.size());
  }

  stats.wall_ms = wall.ElapsedMillis();
  stats.map_ms = metrics.map_ms();
  stats.shuffle_ms = metrics.shuffle_ms();
  stats.sort_ms = metrics.sort_ms();
  stats.reduce_ms = metrics.reduce_ms();
  stats.map_instances = map_instances.load();
  stats.shuffle_bytes = metrics.shuffle_bytes.load();
  stats.reduced_keys = reduced_keys.load();
  stats.propagated_pairs = propagated;
  stats.total_diff = total_diff;
  stats.merge_ms = merge_ns.load() / 1e6;
  return stats;
}

// ---------------------------------------------------------------------------
// Cross-shard exchange: boundary exports + remote-edge inbox
// ---------------------------------------------------------------------------

Status IncrementalIterativeEngine::LoadExisting() {
  I2MR_RETURN_IF_ERROR(IterativeEngine::LoadExisting());
  // (Re)loading from disk supersedes anything captured in memory: exports
  // or forced DKs from a rolled-back refresh must not leak into the next
  // one (the pipeline also guarantees this by recreating the engine).
  pending_remote_dks_.clear();
  {
    std::lock_guard<std::mutex> lock(exports_mu_);
    pending_exports_.clear();
  }
  return LoadRemoteInbox();
}

std::string IncrementalIterativeEngine::RemotePath(int p) const {
  return JoinPath(PartitionDir(p), "remote.dat");
}

Status IncrementalIterativeEngine::LoadRemoteInbox() {
  remote_.clear();
  if (!spec_.owns_key) return Status::OK();
  remote_.resize(spec_.num_partitions);
  for (int p = 0; p < spec_.num_partitions; ++p) {
    if (!FileExists(RemotePath(p))) continue;
    auto recs = ReadRecords(RemotePath(p));
    if (!recs.ok()) return recs.status();
    for (const auto& kv : *recs) {
      DeltaEdge e;
      I2MR_RETURN_IF_ERROR(DecodeEdgeValue(kv.value, &e));
      remote_[p][kv.key][e.mk] = std::move(e.v2);
    }
  }
  return Status::OK();
}

Status IncrementalIterativeEngine::SaveRemoteInbox(int p) const {
  // Same (dk, encoded edge) records the shuffle moves around; the file is
  // rewritten whole (inboxes are boundary-sized, not state-sized) onto a
  // fresh inode, so hard-linked epoch snapshots of it never mutate.
  std::vector<KV> records;
  for (const auto& [dk, by_mk] : remote_[p]) {
    for (const auto& [mk, v2] : by_mk) {
      records.push_back(KV{dk, EncodeEdgeValue(mk, /*deleted=*/false, v2)});
    }
  }
  return WriteRecords(RemotePath(p), records);
}

StatusOr<size_t> IncrementalIterativeEngine::ApplyRemoteEdges(
    const std::vector<DeltaEdge>& edges) {
  if (!spec_.owns_key) {
    return Status::FailedPrecondition(
        "ApplyRemoteEdges on an engine without owns_key");
  }
  if (!prepared_) I2MR_RETURN_IF_ERROR(LoadExisting());
  if (remote_.empty()) remote_.resize(spec_.num_partitions);
  size_t changed = 0;
  std::set<int> dirty_parts;
  for (const auto& e : edges) {
    const int p = static_cast<int>(PartitionOf(e.k2));
    auto& part = remote_[p];
    if (e.deleted) {
      auto it = part.find(e.k2);
      if (it == part.end() || it->second.erase(e.mk) == 0) continue;
      if (it->second.empty()) part.erase(it);
    } else {
      auto& by_mk = part[e.k2];
      auto it = by_mk.find(e.mk);
      if (it != by_mk.end() && it->second == e.v2) continue;
      by_mk[e.mk] = e.v2;
    }
    ++changed;
    dirty_parts.insert(p);
    pending_remote_dks_.insert(e.k2);
  }
  for (int p : dirty_parts) I2MR_RETURN_IF_ERROR(SaveRemoteInbox(p));
  return changed;
}

void IncrementalIterativeEngine::MergeBoundaryExports(
    std::vector<DeltaEdge>&& edges) {
  if (edges.empty()) return;
  std::lock_guard<std::mutex> lock(exports_mu_);
  for (auto& e : edges) {
    auto key = std::make_pair(e.k2, e.mk);
    pending_exports_[std::move(key)] = std::move(e);
  }
}

std::vector<DeltaEdge> IncrementalIterativeEngine::TakeBoundaryExports() {
  std::lock_guard<std::mutex> lock(exports_mu_);
  std::vector<DeltaEdge> out;
  out.reserve(pending_exports_.size());
  for (auto& [key, edge] : pending_exports_) out.push_back(std::move(edge));
  pending_exports_.clear();
  return out;
}

void IncrementalIterativeEngine::AppendRemoteValues(
    int r, std::string_view dk, std::vector<std::string_view>* values) const {
  if (remote_.empty()) return;
  const auto& part = remote_[r];
  auto it = part.find(dk);
  if (it == part.end()) return;
  for (const auto& [mk, v2] : it->second) {
    (void)mk;
    values->push_back(v2);
  }
}

std::vector<std::string> IncrementalIterativeEngine::RemoteOnlyKeys(
    int r) const {
  std::vector<std::string> keys;
  if (remote_.empty()) return keys;
  keys.reserve(remote_[r].size());
  for (const auto& [dk, by_mk] : remote_[r]) {
    (void)by_mk;
    keys.push_back(dk);  // std::map iteration: already sorted
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Top-level jobs
// ---------------------------------------------------------------------------

StatusOr<IncrIterRunStats> IncrementalIterativeEngine::RunInitial(
    const std::vector<KV>& structure, const std::vector<KV>& initial_state) {
  IncrIterRunStats stats;
  WallTimer wall;
  TRACE_SPAN("engine.initial", "job=%s records=%zu", spec_.name.c_str(),
             structure.size());
  if (spec_.owns_key && !options_.maintain_mrbg) {
    // The exchange's export/fold machinery rides on the MRBGraph tagging
    // and merge; without it a sharded reduce would silently drop remote
    // contributions in the re-computation path.
    return Status::InvalidArgument(
        "owns_key (cross-shard exchange) requires maintain_mrbg");
  }
  // Fresh bootstrap: no remote contributions folded, nothing captured yet.
  remote_.clear();
  pending_remote_dks_.clear();
  {
    std::lock_guard<std::mutex> lock(exports_mu_);
    pending_exports_.clear();
  }
  I2MR_RETURN_IF_ERROR(Prepare(structure, initial_state));
  auto iterations = Run();
  if (!iterations.ok()) return iterations.status();
  stats.iterations = std::move(iterations.value());
  if (options_.maintain_mrbg) {
    I2MR_RETURN_IF_ERROR(PreserveMRBGraph(&stats.preserve_ms));
  }
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

StatusOr<IncrIterRunStats> IncrementalIterativeEngine::RunIncremental(
    const std::vector<DeltaKV>& delta_structure) {
  IncrIterRunStats stats;
  WallTimer wall;
  TRACE_SPAN("engine.refresh", "job=%s deltas=%zu", spec_.name.c_str(),
             delta_structure.size());
  if (!prepared_) I2MR_RETURN_IF_ERROR(LoadExisting());
  if (options_.charge_job_startup_per_refresh) {
    cluster_->cost().ChargeJobStartup();
  }

  // Partition the delta structure input with partition function (2) (§4.3).
  std::vector<std::vector<DeltaKV>> per_part(spec_.num_partitions);
  for (const auto& d : delta_structure) {
    uint32_t p = all_to_one()
                     ? PartitionOf(d.key)
                     : PartitionOf(spec_.projector->Project(d.key));
    per_part[p].push_back(d);
  }

  I2MR_RETURN_IF_ERROR(ApplyStructureDelta(per_part));
  std::vector<PartitionCtx> ctxs(spec_.num_partitions);

  // Collect new DKs whose state does not exist yet (inserted structure
  // records): their reduce instances are forced in iteration 1.
  if (!all_to_one()) {
    for (int p = 0; p < spec_.num_partitions; ++p) {
      std::unordered_set<std::string> seen;
      for (const auto& d : per_part[p]) {
        if (d.op != DeltaOp::kInsert) continue;
        std::string dk = spec_.projector->Project(d.key);
        if (states_[p]->Get(dk) == nullptr && seen.insert(dk).second) {
          ctxs[p].forced_dks.push_back(dk);
        }
      }
    }
  }

  // Cross-shard: inbox DKs whose remote contributions changed since the
  // last refresh re-reduce in iteration 1 even when no local delta (and
  // hence no local map emission) touches them — MergeGroup hands back the
  // preserved local chunk and AppendRemoteValues the routed-in values.
  for (const auto& dk : pending_remote_dks_) {
    ctxs[PartitionOf(dk)].forced_dks.push_back(dk);
  }
  pending_remote_dks_.clear();

  bool use_mrbg = options_.maintain_mrbg && mrbg_consistent_;
  if (options_.maintain_mrbg && !mrbg_consistent_) {
    // Stores exist on disk from a previous process/engine: trust them.
    use_mrbg = true;
  }

  if (!use_mrbg) {
    // MRBGraph maintenance off (e.g. Kmeans): re-compute iteratively from
    // the previous converged state (§5.2).
    stats.mrbg_turned_off = true;
    for (int iter = 1; iter <= spec_.max_iterations; ++iter) {
      auto it = RunFullIteration(iter);
      if (!it.ok()) return it.status();
      stats.iterations.push_back(std::move(it.value()));
      if (stats.iterations.back().total_diff <= spec_.convergence_epsilon) break;
    }
    I2MR_RETURN_IF_ERROR(SaveStates());
    stats.wall_ms = wall.ElapsedMillis();
    return stats;
  }

  I2MR_RETURN_IF_ERROR(OpenStores());
  bool auto_off = false;
  const size_t total_state = [&] {
    size_t s = 0;
    for (const auto& st : states_) s += st->size();
    return all_to_one() ? states_[0]->size() : s;
  }();

  for (int iter = 1; iter <= spec_.max_iterations; ++iter) {
    if (options_.checkpoint_each_iteration) {
      I2MR_RETURN_IF_ERROR(Checkpoint(iter));
    }
    auto it = RunIncrIteration(iter, &ctxs,
                               iter == 1 ? &per_part : nullptr, &stats);
    if (!it.ok()) return it.status();
    stats.iterations.push_back(std::move(it.value()));
    const auto& last = stats.iterations.back();

    // P∆ detection (§5.2): turn off MRBGraph maintenance when the delta
    // state covers most of the state data.
    double p_delta = total_state == 0
                         ? 0.0
                         : static_cast<double>(last.propagated_pairs) /
                               static_cast<double>(total_state);
    stats.max_p_delta = std::max(stats.max_p_delta, p_delta);
    if (p_delta > options_.mrbg_auto_off_ratio) {
      auto_off = true;
      break;
    }
    if (last.propagated_pairs == 0 ||
        last.total_diff <= spec_.convergence_epsilon) {
      break;
    }
  }

  if (auto_off) {
    LOG_INFO << spec_.name << ": P∆ above threshold, turning off MRBGraph "
             << "maintenance and re-computing iteratively";
    stats.mrbg_turned_off = true;
    mrbg_consistent_ = false;
    int base = static_cast<int>(stats.iterations.size());
    for (int iter = 1; iter <= spec_.max_iterations; ++iter) {
      auto it = RunFullIteration(base + iter);
      if (!it.ok()) return it.status();
      stats.iterations.push_back(std::move(it.value()));
      if (stats.iterations.back().total_diff <= spec_.convergence_epsilon) break;
    }
  }

  I2MR_RETURN_IF_ERROR(SaveStates());
  if (auto_off && options_.maintain_mrbg) {
    // Rebuild a consistent MRBGraph so the next refresh can be incremental.
    // The stores must be fully closed first: the preservation pass resets
    // each partition's store directory out from under them.
    I2MR_RETURN_IF_ERROR(CloseStores(&stats));
    I2MR_RETURN_IF_ERROR(PreserveMRBGraph(&stats.preserve_ms));
  } else {
    // Stores stay resident (their background compactors keep running
    // between refreshes); harvest this refresh's read counters.
    I2MR_RETURN_IF_ERROR(CollectStoreStats(&stats));
  }
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

}  // namespace i2mr
