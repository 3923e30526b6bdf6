#include "core/incr_job.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/logging.h"
#include "common/timer.h"
#include "core/delta.h"
#include "core/result_store.h"
#include "io/env.h"
#include "io/record_file.h"
#include "mr/shuffle.h"

namespace i2mr {
namespace {

// MapContext that tags user emissions with (MK, op) for MRBGraph
// maintenance. The engine sets mk/deleted before each Map invocation.
class TaggingMapContext : public MapContext {
 public:
  explicit TaggingMapContext(MapContext* inner) : inner_(inner) {}

  void Begin(uint64_t mk, bool deleted) {
    mk_ = mk;
    deleted_ = deleted;
  }

  void Emit(std::string_view key, std::string_view value) override {
    // Deletions shuffle <K2, MK, '-'>: the payload is dropped (paper §3.3).
    inner_->Emit(key, EncodeEdgeValue(mk_, deleted_,
                                      deleted_ ? std::string_view() : value));
  }

 private:
  MapContext* inner_;
  uint64_t mk_ = 0;
  bool deleted_ = false;
};

// Collects reduce emissions into a vector of KVs.
class VectorReduceContext : public ReduceContext {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    out_.push_back(KV{std::string(key), std::string(value)});
  }
  std::vector<KV> Take() { return std::move(out_); }

 private:
  std::vector<KV> out_;
};

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

}  // namespace

IncrementalOneStepJob::IncrementalOneStepJob(LocalCluster* cluster,
                                             IncrJobSpec spec)
    : cluster_(cluster), spec_(std::move(spec)) {
  I2MR_CHECK(spec_.mapper != nullptr);
  I2MR_CHECK(spec_.accumulate || spec_.reducer) << "need reducer or accumulate";
  if (!spec_.partitioner) spec_.partitioner = std::make_shared<Partitioner>();
}

std::string IncrementalOneStepJob::PartitionDir(int r) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/part-%03d", r);
  return JoinPath(cluster_->root(), "state/" + spec_.name + buf);
}

// ---------------------------------------------------------------------------
// Map phase
// ---------------------------------------------------------------------------

Status IncrementalOneStepJob::RunMapPhase(const std::vector<std::string>& parts,
                                          bool delta,
                                          const std::string& job_dir,
                                          ShuffleExchange* exchange,
                                          StageMetrics* metrics) {
  const int num_maps = static_cast<int>(parts.size());
  std::vector<Status> statuses(num_maps);
  ParallelFor(cluster_->pool(), num_maps, [&](int m) {
    statuses[m] = [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      auto mapper = spec_.mapper();
      ShuffleWriter writer(spec_.num_reduce_tasks, spec_.partitioner.get(),
                           MapTaskDir(job_dir, m), exchange);
      int64_t instances = 0;

      if (accumulator_mode()) {
        // Plain emissions; validity: incremental deltas must be insert-only.
        ScopedTimer t(&metrics->map_ns);
        mapper->Setup(&writer);
        if (!delta) {
          auto reader = RecordReader::Open(parts[m]);
          if (!reader.ok()) return reader.status();
          KV kv;
          for (;;) {
            Status st = reader.value()->Next(&kv);
            if (st.IsNotFound()) break;
            I2MR_RETURN_IF_ERROR(st);
            mapper->Map(kv.key, kv.value, &writer);
            ++instances;
          }
        } else {
          auto reader = DeltaReader::Open(parts[m]);
          if (!reader.ok()) return reader.status();
          DeltaKV rec;
          for (;;) {
            Status st = reader.value()->Next(&rec);
            if (st.IsNotFound()) break;
            I2MR_RETURN_IF_ERROR(st);
            if (rec.op == DeltaOp::kDelete) {
              return Status::InvalidArgument(
                  "accumulator Reduce requires insertion-only deltas (§3.5)");
            }
            mapper->Map(rec.key, rec.value, &writer);
            ++instances;
          }
        }
        mapper->Flush(&writer);
      } else {
        // MRBGraph mode: tag emissions with (MK, op).
        TaggingMapContext ctx(&writer);
        ScopedTimer t(&metrics->map_ns);
        ctx.Begin(Hash64("__setup__" + parts[m]), false);
        mapper->Setup(&ctx);
        if (!delta) {
          auto reader = RecordReader::Open(parts[m]);
          if (!reader.ok()) return reader.status();
          KV kv;
          for (;;) {
            Status st = reader.value()->Next(&kv);
            if (st.IsNotFound()) break;
            I2MR_RETURN_IF_ERROR(st);
            ctx.Begin(MapInstanceKey(kv.key, kv.value), false);
            mapper->Map(kv.key, kv.value, &ctx);
            ++instances;
          }
        } else {
          auto reader = DeltaReader::Open(parts[m]);
          if (!reader.ok()) return reader.status();
          DeltaKV rec;
          for (;;) {
            Status st = reader.value()->Next(&rec);
            if (st.IsNotFound()) break;
            I2MR_RETURN_IF_ERROR(st);
            ctx.Begin(MapInstanceKey(rec.key, rec.value),
                      rec.op == DeltaOp::kDelete);
            mapper->Map(rec.key, rec.value, &ctx);
            ++instances;
          }
        }
        ctx.Begin(Hash64("__flush__" + parts[m]), false);
        mapper->Flush(&ctx);
      }

      metrics->map_input_records += instances;
      map_instances_.fetch_add(instances);
      std::unique_ptr<Reducer> combiner;
      if (accumulator_mode() && spec_.accumulate) {
        // Fold values map-side with the accumulator (legal by §3.5).
        AccumulateFn acc = spec_.accumulate;
        combiner = std::make_unique<FnReducer>(
            [acc](const std::string& k, const std::vector<std::string>& vs,
                  ReduceContext* ctx) {
              std::string folded = vs[0];
              for (size_t i = 1; i < vs.size(); ++i) folded = acc(folded, vs[i]);
              ctx->Emit(k, folded);
            });
      }
      return writer.Finish(combiner.get(), metrics);
    }();
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reduce phases
// ---------------------------------------------------------------------------

Status IncrementalOneStepJob::RunReducePhaseInitial(
    const std::string& job_dir, int num_maps, const ShuffleExchange* exchange,
    StageMetrics* metrics, IncrRunStats* stats) {
  const int R = spec_.num_reduce_tasks;
  std::vector<Status> statuses(R);
  std::atomic<int64_t> groups{0};
  // Reduce tasks run concurrently: accumulate per-store stats atomically
  // (the plain += on *stats raced).
  std::atomic<uint64_t> io_reads{0}, bytes_read{0};
  ParallelFor(cluster_->pool(), R, [&](int r) {
    statuses[r] = [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      I2MR_RETURN_IF_ERROR(ResetDir(PartitionDir(r)));

      ShuffleReader::Source source;
      source.exchange = exchange;
      source.partition = r;
      for (int m = 0; m < num_maps; ++m) {
        source.spill_files.push_back(
            JoinPath(MapTaskDir(job_dir, m), SpillFileName(r)));
      }
      auto reader = ShuffleReader::Open(source, cluster_->cost(), metrics);
      if (!reader.ok()) return reader.status();

      auto results = ResultStore::Open(JoinPath(PartitionDir(r), "results"));
      if (!results.ok()) return results.status();

      std::string key;
      std::vector<std::string> values;

      if (accumulator_mode()) {
        ScopedTimer t(&metrics->reduce_ns);
        while (reader.value()->NextGroup(&key, &values)) {
          std::string folded = values[0];
          for (size_t i = 1; i < values.size(); ++i) {
            folded = spec_.accumulate(folded, values[i]);
          }
          results->Put(key, folded);
          groups.fetch_add(1);
        }
        return results->Save();
      }

      auto store = MRBGStore::Open(JoinPath(PartitionDir(r), "mrbg"),
                                   spec_.store_options);
      if (!store.ok()) return store.status();
      auto reducer = spec_.reducer();
      {
        ScopedTimer t(&metrics->reduce_ns);
        std::string_view key_view;
        std::vector<std::string_view> value_views;
        while (reader.value()->NextGroup(&key_view, &value_views)) {
          Chunk chunk;
          chunk.key.assign(key_view);
          chunk.entries.reserve(value_views.size());
          std::vector<std::string> v2s;
          v2s.reserve(value_views.size());
          for (const auto& enc : value_views) {
            DeltaEdge e;
            I2MR_RETURN_IF_ERROR(DecodeEdgeValue(enc, &e));
            I2MR_CHECK(!e.deleted) << "deletion in initial run";
            v2s.push_back(e.v2);
            chunk.entries.push_back(ChunkEntry{e.mk, std::move(e.v2)});
          }
          I2MR_RETURN_IF_ERROR(store.value()->AppendChunk(chunk));
          VectorReduceContext ctx;
          reducer->Reduce(chunk.key, v2s, &ctx);
          results->SetInstanceOutputs(chunk.key, ctx.Take());
          groups.fetch_add(1);
        }
      }
      I2MR_RETURN_IF_ERROR(store.value()->FinishBatch());
      io_reads.fetch_add(store.value()->stats().io_reads);
      bytes_read.fetch_add(store.value()->stats().bytes_read);
      I2MR_RETURN_IF_ERROR(store.value()->Close());
      return results->Save();
    }();
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  metrics->reduce_groups += groups.load();
  stats->reduce_instances = groups.load();
  stats->store_io_reads += io_reads.load();
  stats->store_bytes_read += bytes_read.load();
  return Status::OK();
}

Status IncrementalOneStepJob::RunReducePhaseIncremental(
    const std::string& job_dir, int num_maps, const ShuffleExchange* exchange,
    StageMetrics* metrics, IncrRunStats* stats) {
  const int R = spec_.num_reduce_tasks;
  std::vector<Status> statuses(R);
  std::atomic<int64_t> groups{0};
  std::atomic<int64_t> merge_ns{0};
  std::atomic<uint64_t> io_reads{0}, bytes_read{0};

  ParallelFor(cluster_->pool(), R, [&](int r) {
    statuses[r] = [&]() -> Status {
      cluster_->cost().ChargeTaskStartup();
      ShuffleReader::Source source;
      source.exchange = exchange;
      source.partition = r;
      for (int m = 0; m < num_maps; ++m) {
        source.spill_files.push_back(
            JoinPath(MapTaskDir(job_dir, m), SpillFileName(r)));
      }
      auto reader = ShuffleReader::Open(source, cluster_->cost(), metrics);
      if (!reader.ok()) return reader.status();

      auto results = ResultStore::Open(JoinPath(PartitionDir(r), "results"));
      if (!results.ok()) return results.status();

      std::string key;
      std::vector<std::string> values;

      if (accumulator_mode()) {
        ScopedTimer t(&metrics->reduce_ns);
        while (reader.value()->NextGroup(&key, &values)) {
          std::string folded = values[0];
          for (size_t i = 1; i < values.size(); ++i) {
            folded = spec_.accumulate(folded, values[i]);
          }
          const std::string* old = results->Get(key);
          results->Put(key, old == nullptr ? folded
                                           : spec_.accumulate(*old, folded));
          groups.fetch_add(1);
        }
        return results->Save();
      }

      // MRBGraph mode: group the delta, then merge against preserved chunks.
      // The group key is the edges' K2, so each DeltaEdge leaves k2 empty.
      std::vector<std::pair<std::string, std::vector<DeltaEdge>>> delta_groups;
      std::string_view key_view;
      std::vector<std::string_view> value_views;
      while (reader.value()->NextGroup(&key_view, &value_views)) {
        std::vector<DeltaEdge> edges(value_views.size());
        for (size_t i = 0; i < value_views.size(); ++i) {
          I2MR_RETURN_IF_ERROR(DecodeEdgeValue(value_views[i], &edges[i]));
        }
        delta_groups.emplace_back(std::string(key_view), std::move(edges));
      }

      auto store = MRBGStore::Open(JoinPath(PartitionDir(r), "mrbg"),
                                   spec_.store_options);
      if (!store.ok()) return store.status();
      std::vector<std::string> keys;
      keys.reserve(delta_groups.size());
      for (const auto& [k, _] : delta_groups) keys.push_back(k);
      I2MR_RETURN_IF_ERROR(store.value()->PrepareQueries(keys));

      auto reducer = spec_.reducer();
      {
        ScopedTimer t(&metrics->reduce_ns);
        // Reused across groups, keeping their strings' capacity.
        Chunk merged;
        std::vector<std::string> v2s;
        for (const auto& [k2, edges] : delta_groups) {
          {
            ScopedTimer mt(&merge_ns);
            I2MR_RETURN_IF_ERROR(store.value()->MergeGroup(k2, edges, &merged));
          }
          if (merged.empty()) {
            results->EraseInstance(k2);
          } else {
            v2s.resize(merged.entries.size());
            for (size_t i = 0; i < v2s.size(); ++i) {
              v2s[i].assign(merged.entries[i].v2);
            }
            VectorReduceContext ctx;
            reducer->Reduce(k2, v2s, &ctx);
            results->SetInstanceOutputs(k2, ctx.Take());
          }
          groups.fetch_add(1);
        }
      }
      I2MR_RETURN_IF_ERROR(store.value()->FinishBatch());
      // Every open starts a fresh segment, so a store reopened once per
      // refresh needs the same segment-count bound the engine applies.
      I2MR_RETURN_IF_ERROR(store.value()->CompactIfNeeded());
      io_reads.fetch_add(store.value()->stats().io_reads);
      bytes_read.fetch_add(store.value()->stats().bytes_read);
      I2MR_RETURN_IF_ERROR(store.value()->Close());
      return results->Save();
    }();
  });
  for (const auto& st : statuses) I2MR_RETURN_IF_ERROR(st);
  metrics->reduce_groups += groups.load();
  stats->reduce_instances = groups.load();
  stats->merge_ms = merge_ns.load() / 1e6;
  stats->store_io_reads = io_reads.load();
  stats->store_bytes_read = bytes_read.load();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Top-level runs
// ---------------------------------------------------------------------------

StatusOr<IncrRunStats> IncrementalOneStepJob::RunInitial(
    const std::vector<std::string>& input_parts) {
  IncrRunStats stats;
  stats.metrics = std::make_shared<StageMetrics>();
  WallTimer wall;
  map_instances_ = 0;
  cluster_->cost().ChargeJobStartup();
  std::string job_dir = cluster_->NewJobDir(spec_.name + "-init");
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(spec_.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(spec_.num_reduce_tasks,
                                                 spec_.shuffle_memory_bytes);
  }
  I2MR_RETURN_IF_ERROR(RunMapPhase(input_parts, /*delta=*/false, job_dir,
                                   exchange.get(), stats.metrics.get()));
  I2MR_RETURN_IF_ERROR(
      RunReducePhaseInitial(job_dir, static_cast<int>(input_parts.size()),
                            exchange.get(), stats.metrics.get(), &stats));
  I2MR_RETURN_IF_ERROR(RemoveAll(job_dir));
  stats.map_instances = map_instances_.load();
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

StatusOr<IncrRunStats> IncrementalOneStepJob::RunIncremental(
    const std::vector<std::string>& delta_parts) {
  IncrRunStats stats;
  stats.metrics = std::make_shared<StageMetrics>();
  WallTimer wall;
  map_instances_ = 0;
  cluster_->cost().ChargeJobStartup();
  std::string job_dir = cluster_->NewJobDir(spec_.name + "-incr");
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(spec_.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(spec_.num_reduce_tasks,
                                                 spec_.shuffle_memory_bytes);
  }
  I2MR_RETURN_IF_ERROR(RunMapPhase(delta_parts, /*delta=*/true, job_dir,
                                   exchange.get(), stats.metrics.get()));
  I2MR_RETURN_IF_ERROR(RunReducePhaseIncremental(
      job_dir, static_cast<int>(delta_parts.size()), exchange.get(),
      stats.metrics.get(), &stats));
  I2MR_RETURN_IF_ERROR(RemoveAll(job_dir));
  stats.map_instances = map_instances_.load();
  stats.wall_ms = wall.ElapsedMillis();
  return stats;
}

StatusOr<std::vector<KV>> IncrementalOneStepJob::Results() const {
  std::vector<KV> all;
  for (int r = 0; r < spec_.num_reduce_tasks; ++r) {
    auto results = ResultStore::Open(JoinPath(PartitionDir(r), "results"));
    if (!results.ok()) return results.status();
    auto snap = results->Snapshot();
    all.insert(all.end(), snap.begin(), snap.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace i2mr
