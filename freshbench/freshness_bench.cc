// Closed-loop freshness benchmark.
//
// One load generator drives one workload in a closed loop: append one batch,
// run the epoch, wait until a pinned read shows an epoch whose watermark
// covers the batch, then generate and append the next batch. Inputs come from
// --seed only. Every run checks its outputs against a sequential reference
// (PageRank: mean relative error under a fixed bound; SSSP: exact, on the
// merged primary snapshot and on every follower) and prints, as the last
// stdout line, one JSON object {correct, attempted, failed, metrics}.
//
//   --workload pagerank-trickle | pagerank-bulk | sssp-2shard-replicated
//   --seed N        delta-stream and reader seed (the graph is fixed)
//   --seconds S     measured closed-loop time (ignored when --epochs > 0)
//   --trace 0|1     0: end-to-end metrics; 1: spans + per-layer metrics
//   --root DIR      scratch directory for cluster state (removed at exit)
//   --epochs N      fixed epoch count instead of a time budget (self-test)
//   --vertices N    graph size (default 10000)
//
// See README.md for the workload reasons and the metric -> layer map.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/incr_iter_engine.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "mr/cluster.h"
#include "pipeline/pipeline.h"
#include "replication/replica_set.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

#ifndef FRESHBENCH_BUILD_TYPE
#define FRESHBENCH_BUILD_TYPE "unknown"
#endif

namespace {
std::atomic<uint64_t> g_fsyncs{0};
}  // namespace

// Count every fsync/fdatasync the program issues. The library is linked
// statically into this executable, so its calls bind to these definitions;
// the real work is the raw system call.
extern "C" int fsync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fsync, fd));
}
extern "C" int fdatasync(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(::syscall(SYS_fdatasync, fd));
}

using namespace i2mr;

namespace {

using Clock = std::chrono::steady_clock;

// Mean relative error bounds for the PageRank output check, per workload.
// CPC filtering (threshold 0.1) makes the refreshed ranks drift from the
// exact reference; the drift is deterministic per seed and epoch count.
// Measured on the benchmark's graph, seeds 1-5: trickle 0.0260-0.0316 over
// 120-720 epochs, rising slowly with the epoch count (a faster build runs
// more epochs in the same time); bulk 0.0265-0.0307 over 40-180 epochs, with
// no trend. Each bound sits just above its largest measured value (README.md
// lists them).
constexpr double kTrickleErrorBound = 0.033;
constexpr double kBulkErrorBound = 0.032;

// The graph is the same for every --seed, so set-up time and the per-epoch
// costs that depend on the graph's shape do not vary between seeds; --seed
// drives the delta stream and the paced reader.
constexpr uint64_t kGraphSeed = 1;

constexpr int kWorkers = 2;
constexpr int kSetups = 3;
constexpr int kReplayEpochs = 8;
constexpr size_t kMinEpochsForP90 = 100;
const char* const kSsspSource = "0000000000";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Process peak resident memory so far (ru_maxrss).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Bytes the process passed to write-like system calls (/proc/self/io).
uint64_t WriteChars() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double MsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DigestKVs(const std::vector<KV>& kvs) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& kv : kvs) h = Fnv(Fnv(h, kv.key), kv.value);
  return h;
}

// -- Spans --------------------------------------------------------------------
//
// The traced run records with the library's process-wide trace collector
// (common/trace.h), so the library's own spans (pipeline.epoch,
// engine.iteration, task.*, exchange.round, replica.* ...) land in the same
// trace as the spans this benchmark opens around its calls. A span's parent
// is the span that encloses it on the same thread.

constexpr size_t kTraceRingEvents = size_t{1} << 16;  // per thread

/// Starts the trace session for the measured loop and returns the cost of
/// recording one annotated span, measured first inside a throwaway session.
double StartTracing() {
  auto* collector = trace::TraceCollector::Get();
  collector->set_ring_capacity(kTraceRingEvents);
  collector->Start();
  { TRACE_SPAN("calibrate"); }  // allocates this thread's ring
  const int n = 4000;
  const int64_t start = NowNs();
  for (int i = 0; i < n; ++i) {
    TRACE_SPAN("calibrate", "epoch=%d", i);
  }
  const double cost_ns = static_cast<double>(NowNs() - start) / n;
  collector->Start();  // a new session: the calibration spans are left out
  return cost_ns;
}

/// Self time (duration minus the durations of the spans it directly
/// encloses on the same thread), summed per span name, over the events that
/// start in [from_ns, to_ns). Instant events are skipped.
std::map<std::string, double> SelfMsByName(std::vector<trace::Event> events,
                                           int64_t from_ns, int64_t to_ns) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const trace::Event& e) {
                                return e.dur_ns < 0 || e.ts_ns < from_ns ||
                                       e.ts_ns >= to_ns;
                              }),
               events.end());
  // Per thread, outer spans first: by start, then longest first.
  std::sort(events.begin(), events.end(),
            [](const trace::Event& a, const trace::Event& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> open;  // stack of enclosing spans on this thread
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid && e.ts_ns + e.dur_ns <= top.ts_ns + top.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += e.dur_ns;
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < events.size(); ++i) {
    out[events[i].name] +=
        static_cast<double>(events[i].dur_ns - child_ns[i]) / 1e6;
  }
  return out;
}

// -- Run state ----------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;
  int epochs = 0;  // > 0: fixed epoch count (self-test)
  uint64_t vertices = 10000;
};

struct Result {
  bool correct = true;
  std::string why;  // first failed check
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::vector<double> setup_s;
  std::vector<double> freshness_ms;
  std::vector<double> append_us;
  std::vector<double> epoch_ms, refresh_ms, commit_ms, other_ms;
  double iterations = 0;
  double map_ms = 0, shuffle_ms = 0, sort_ms = 0, reduce_ms = 0, merge_ms = 0;
  uint64_t epochs = 0;
  uint64_t deltas_applied = 0;
  int64_t loop_start_ns = 0, loop_end_ns = 0;  // the measured loop
  double span_cost_ns = 0;                      // traced run
  double loop_wall_s = 0;  // sum of append -> visible intervals
  double loop_cpu_s = 0;   // process CPU over the same intervals
  uint64_t write_bytes = 0;
  uint64_t fsyncs = 0;
  double peak_rss_mb = 0;

  // Coordinated serving + replication (sssp only).
  std::vector<double> serving_epoch_ms;
  uint64_t exchange_rounds = 0;
  uint64_t edges_exchanged = 0;
  uint64_t bytes_routed = 0;
  std::vector<double> read_us;
  uint64_t shipped_bytes = 0;
  std::vector<double> replica_lag_ms;

  // Engine-only replay of the first kReplayEpochs deltas (traced run).
  std::vector<double> replay_refresh_ms;
  int64_t map_instances = 0, reduced_keys = 0, propagated_pairs = 0;
  int64_t shuffle_bytes = 0;
  uint64_t mrbg_io_reads = 0, mrbg_bytes_read = 0;
  uint64_t mrbg_file_bytes = 0;

  // Output check + determinism digest.
  double output_error = 0;
  uint64_t digest = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (correct) why = what;
    correct = false;
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

/// Process counters sampled around each closed-loop iteration, so input
/// generation between iterations is not charged to the program.
struct IterMeter {
  int64_t start_ns = NowNs();
  double cpu = CpuSeconds();
  uint64_t wchar = WriteChars();
  uint64_t fsyncs = g_fsyncs.load();

  void Finish(int64_t end_ns, Result* r) const {
    r->loop_wall_s += static_cast<double>(end_ns - start_ns) / 1e9;
    r->loop_cpu_s += CpuSeconds() - cpu;
    r->write_bytes += WriteChars() - wchar;
    r->fsyncs += g_fsyncs.load() - fsyncs;
  }
};

std::vector<KV> StateFor(const IterJobSpec& spec, const std::vector<KV>& g) {
  std::vector<KV> state;
  state.reserve(g.size());
  for (const auto& kv : g) state.push_back(KV{kv.key, spec.init_state(kv.key)});
  return state;
}

uint64_t DeltaSeed(uint64_t seed, uint64_t epoch) {
  return seed * 1000003ull + epoch + 1;
}

/// Loop termination: a fixed epoch count, or the measured time budget,
/// extended until kMinEpochsForP90 epochs are in so that the freshness p90
/// always has at least ten samples beyond it.
class Budget {
 public:
  explicit Budget(const Config& cfg)
      : epochs_(cfg.epochs),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         cfg.seconds))) {}
  bool More(uint64_t done) const {
    if (epochs_ > 0) return done < static_cast<uint64_t>(epochs_);
    return done < kMinEpochsForP90 || Clock::now() < deadline_;
  }

 private:
  int epochs_;
  Clock::time_point deadline_;
};

/// One timed set-up: `open` builds `System` on a fresh root.
template <typename System, typename OpenFn>
Status TimedSetup(const std::string& root, const OpenFn& open, System* sys,
                  Result* r) {
  const int64_t t0 = NowNs();
  I2MR_RETURN_IF_ERROR(open(root, sys));
  r->setup_s.push_back(MsBetween(t0, NowNs()) / 1e3);
  return Status::OK();
}

/// The remaining kSetups - 1 set-ups for the setup_s median (untraced runs
/// only), each on a fresh root and torn down before the next. They run after
/// the measured loop and its peak-RSS reading, with the measured system
/// already torn down, so they share no time or memory with the loop.
template <typename System, typename OpenFn>
Status MoreSetups(const Config& cfg, const OpenFn& open, Result* r) {
  for (int i = 1; i < kSetups; ++i) {
    const std::string root = JoinPath(cfg.root, "setup" + std::to_string(i));
    {
      System sys;
      I2MR_RETURN_IF_ERROR(TimedSetup(root, open, &sys, r));
    }
    I2MR_RETURN_IF_ERROR(RemoveAll(root));
  }
  return Status::OK();
}

/// Engine-only replay: a fresh IncrementalIterativeEngine refreshes the same
/// deltas the pipeline consumed, one RunIncremental per epoch, so the core
/// and MRBG counters come from the engine alone. Background compaction is
/// off in the replay: a pass that lands between reads moves chunks and
/// changes the MRBG read counts with timing, and these counts must depend
/// on the seed alone.
Status Replay(const Config& cfg, const IterJobSpec& spec,
              IncrIterOptions opts, const std::vector<KV>& graph0,
              const std::vector<std::vector<DeltaKV>>& deltas, Result* r) {
  opts.store_options.background_compaction = false;
  LocalCluster cluster(JoinPath(cfg.root, "replay"), kWorkers, CostModel{});
  IncrementalIterativeEngine engine(&cluster, spec, opts);
  auto init = engine.RunInitial(graph0, StateFor(spec, graph0));
  if (!init.ok()) return init.status();
  TRACE_SPAN("replay");
  for (size_t e = 0; e < deltas.size(); ++e) {
    trace::ScopedSpan span("replay.refresh", "epoch=%zu", e + 1);
    int64_t t0 = NowNs();
    auto run = engine.RunIncremental(deltas[e]);
    int64_t t1 = NowNs();
    span.End();
    if (!run.ok()) return run.status();
    r->replay_refresh_ms.push_back(MsBetween(t0, t1));
    for (const auto& it : run->iterations) {
      r->map_instances += it.map_instances;
      r->reduced_keys += it.reduced_keys;
      r->propagated_pairs += it.propagated_pairs;
      r->shuffle_bytes += it.shuffle_bytes;
    }
    r->mrbg_io_reads += run->store_io_reads;
    r->mrbg_bytes_read += run->store_bytes_read;
  }
  return Status::OK();
}

// -- PageRank workloads -------------------------------------------------------

struct PagerankSystem {
  std::unique_ptr<LocalCluster> cluster;  // outlives the pipeline
  std::unique_ptr<Pipeline> pipeline;

  void Reset() {
    pipeline.reset();
    cluster.reset();
  }
};

Status RunPagerank(const Config& cfg, bool bulk, Result* r) {
  GraphGenOptions gen;
  gen.num_vertices = cfg.vertices;
  gen.avg_degree = 8;
  gen.seed = kGraphSeed;
  const std::vector<KV> graph0 = GenGraph(gen);

  PipelineOptions options;
  options.spec = pagerank::MakeIterSpec("pr", kWorkers, 60, 1e-6);
  options.engine.filter_threshold = 0.1;

  const auto open = [&](const std::string& root, PagerankSystem* sys) {
    sys->cluster = std::make_unique<LocalCluster>(root, kWorkers, CostModel{});
    auto opened = Pipeline::Open(sys->cluster.get(), "pr", options);
    if (!opened.ok()) return opened.status();
    sys->pipeline = std::move(*opened);
    return sys->pipeline->Bootstrap(graph0, StateFor(options.spec, graph0));
  };
  PagerankSystem sys;
  I2MR_RETURN_IF_ERROR(
      TimedSetup(JoinPath(cfg.root, "setup0"), open, &sys, r));
  Pipeline* pipeline = sys.pipeline.get();

  std::vector<KV> graph = graph0;
  std::vector<std::vector<DeltaKV>> replay;
  const Budget budget(cfg);
  if (cfg.trace) r->span_cost_ns = StartTracing();
  r->loop_start_ns = NowNs();
  while (budget.More(r->epochs)) {
    const uint64_t e = r->epochs + 1;
    GraphDeltaOptions dopt;
    dopt.update_fraction = bulk ? 0.10 : 0.005;
    dopt.seed = DeltaSeed(cfg.seed, e);
    std::vector<DeltaKV> delta = GenGraphDelta(gen, dopt, &graph);
    if (cfg.trace && replay.size() < kReplayEpochs) {
      replay.push_back(delta);
    }

    const auto epoch_id = static_cast<unsigned long long>(e);
    trace::ScopedSpan loop("epoch", "epoch=%llu", epoch_id);
    IterMeter meter;
    trace::ScopedSpan append("append", "epoch=%llu", epoch_id);
    auto seq = pipeline->AppendBatch(delta);
    const int64_t t_appended = NowNs();
    append.End();
    r->Check(seq.ok(), "append");
    if (!seq.ok()) return seq.status();
    r->append_us.push_back(MsBetween(meter.start_ns, t_appended) * 1e3);

    trace::ScopedSpan run_epoch("run_epoch", "epoch=%llu", epoch_id);
    auto stats = pipeline->RunEpoch();
    run_epoch.End();
    r->Check(stats.ok() && stats->deltas_applied == delta.size(), "epoch");
    if (!stats.ok()) return stats.status();

    trace::ScopedSpan pin_read("pin_read", "epoch=%llu", epoch_id);
    EpochPin pin = pipeline->PinServing();
    const bool covers = pin.valid() && pin.watermark() >= *seq;
    const bool read_ok = covers && pin.Lookup(delta.back().key).ok();
    const int64_t t_visible = NowNs();
    pin_read.End();
    r->Check(read_ok, "pinned read does not cover the batch");
    meter.Finish(t_visible, r);
    loop.End();

    r->freshness_ms.push_back(MsBetween(meter.start_ns, t_visible));
    r->epoch_ms.push_back(stats->wall_ms);
    r->refresh_ms.push_back(stats->refresh_ms);
    r->commit_ms.push_back(stats->commit_ms);
    r->other_ms.push_back(stats->wall_ms - stats->refresh_ms -
                          stats->commit_ms);
    r->iterations += static_cast<double>(stats->iterations);
    r->map_ms += stats->refresh_map_ms;
    r->shuffle_ms += stats->refresh_shuffle_ms;
    r->sort_ms += stats->refresh_sort_ms;
    r->reduce_ms += stats->refresh_reduce_ms;
    r->merge_ms += stats->refresh_merge_ms;
    r->deltas_applied += stats->deltas_applied;
    ++r->epochs;
  }
  r->loop_end_ns = NowNs();
  r->peak_rss_mb = PeakRssMb();
  auto mrbg_bytes = pipeline->engine()->MrbgFileBytes();
  if (mrbg_bytes.ok()) r->mrbg_file_bytes = *mrbg_bytes;

  // Output check on a pinned view of the last epoch.
  EpochPin pin = pipeline->PinServing();
  const std::vector<KV> got =
      pin.valid() ? pin.store()->Snapshot() : std::vector<KV>{};
  const auto reference = pagerank::Reference(graph, 200, 1e-10);
  r->output_error = pagerank::MeanError(got, reference);
  r->Check(got.size() == graph.size(), "pagerank result size");
  r->Check(r->output_error <= (bulk ? kBulkErrorBound : kTrickleErrorBound),
           "pagerank mean error above bound");
  r->digest = DigestKVs(got);
  pin = EpochPin();
  sys.Reset();

  if (cfg.trace) {
    return Replay(cfg, options.spec, options.engine, graph0, replay, r);
  }
  return MoreSetups<PagerankSystem>(cfg, open, r);
}

// -- SSSP delta generator -----------------------------------------------------

/// Decrease-only SSSP delta: each touched vertex either gains an edge to a
/// vertex it is not yet adjacent to, or has one existing edge's weight
/// lowered. Distances can only fall (the incremental SSSP contract), and
/// the graph stays simple — no self-loops, no parallel i->j edges — as
/// GenGraph keeps it. `graph` is indexed by vertex id and updated in place.
std::vector<DeltaKV> GenSsspDelta(uint64_t seed, double fraction,
                                  std::vector<KV>* graph) {
  Rng rng(seed);
  const uint64_t n = graph->size();
  const size_t touched = static_cast<size_t>(fraction * static_cast<double>(n));
  std::set<uint64_t> chosen;
  while (chosen.size() < touched) chosen.insert(rng.Uniform(n));
  std::vector<DeltaKV> out;
  out.reserve(2 * touched);
  for (uint64_t v : chosen) {
    KV& rec = (*graph)[v];
    auto edges = ParseWeightedAdjacency(rec.value);
    const bool add = edges.empty() || rng.Bernoulli(0.5);
    if (add) {
      std::set<std::string> adjacent;
      for (const auto& e : edges) adjacent.insert(e.first);
      for (int attempt = 0; attempt < 64; ++attempt) {
        uint64_t d = rng.Uniform(n);
        std::string dest = (*graph)[d].key;
        if (d == v || adjacent.count(dest) > 0) continue;
        edges.emplace_back(dest, std::abs(rng.Gaussian(1.0, 0.3)) + 0.1);
        break;
      }
    } else {
      auto& e = edges[rng.Uniform(edges.size())];
      e.second *= 0.5 + 0.4 * rng.NextDouble();
    }
    std::string value = JoinWeightedAdjacency(edges);
    if (value == rec.value) continue;
    out.push_back(DeltaKV{DeltaOp::kDelete, rec.key, rec.value});
    out.push_back(DeltaKV{DeltaOp::kInsert, rec.key, value});
    rec.value = std::move(value);
  }
  return out;
}

// -- SSSP, 2 coordinated shards, 1 follower each --------------------------------

struct SsspFleet {
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<ReplicaSet> replicas;
  std::unique_ptr<ShardGroup> group;

  void Reset() {
    group.reset();
    replicas.reset();
    router.reset();
  }
};

Status OpenSsspFleet(const std::string& root, const ShardRouterOptions& options,
                     const std::vector<KV>& graph, const std::vector<KV>& init,
                     SsspFleet* fleet) {
  auto router = ShardRouter::Open(JoinPath(root, "primary"), "sp", options);
  if (!router.ok()) return router.status();
  fleet->router = std::move(*router);
  I2MR_RETURN_IF_ERROR(fleet->router->Bootstrap(graph, init));
  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  const std::string replicas_root = JoinPath(root, "replicas");
  I2MR_RETURN_IF_ERROR(ResetDir(replicas_root));
  auto set = ReplicaSet::Open(fleet->router.get(), replicas_root, ro);
  if (!set.ok()) return set.status();
  fleet->replicas = std::move(*set);
  I2MR_RETURN_IF_ERROR(fleet->replicas->SyncAll());
  fleet->group = std::make_unique<ShardGroup>(fleet->router.get());
  return Status::OK();
}

/// Wait until every follower serves `epoch`; false on timeout.
bool WaitReplicas(const ReplicaSet& set, uint64_t epoch) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    bool all = true;
    for (int s = 0; s < set.num_shards() && all; ++s) {
      for (int i = 0; i < set.replicas_per_shard() && all; ++i) {
        EpochPin pin = set.replica(s, i)->PinServing();
        all = pin.valid() && pin.epoch() >= epoch;
      }
    }
    if (all) return true;
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

uint64_t ShippedBytes(const ReplicaSet& set) {
  uint64_t total = 0;
  for (int s = 0; s < set.num_shards(); ++s) {
    for (int i = 0; i < set.replicas_per_shard(); ++i) {
      total += static_cast<uint64_t>(set.replica(s, i)->shipped_bytes()->value());
    }
  }
  return total;
}

Status RunSssp(const Config& cfg, Result* r) {
  GraphGenOptions gen;
  gen.num_vertices = cfg.vertices;
  gen.avg_degree = 8;
  gen.weighted = true;
  gen.seed = kGraphSeed;
  const std::vector<KV> graph0 = GenGraph(gen);

  MetricsRegistry metrics;
  ShardRouterOptions options;
  options.num_shards = 2;
  options.workers_per_shard = 1;
  options.cross_shard_exchange = true;
  options.metrics = &metrics;
  options.pipeline.spec = sssp::MakeIterSpec("sp", kSsspSource, 1, 200);
  options.pipeline.engine.filter_threshold = 0.0;
  const std::vector<KV> init = StateFor(options.pipeline.spec, graph0);

  const auto open = [&](const std::string& root, SsspFleet* fleet) {
    return OpenSsspFleet(root, options, graph0, init, fleet);
  };
  SsspFleet fleet;
  I2MR_RETURN_IF_ERROR(
      TimedSetup(JoinPath(cfg.root, "setup0"), open, &fleet, r));
  ShardRouter* router = fleet.router.get();
  ReplicaSet* set = fleet.replicas.get();
  Counter* bytes_routed = metrics.Get("serving.sp.exchange.bytes_routed");

  // One paced reader: a pinned snapshot through the replica set + one get,
  // every 2 ms, beside the writer.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, read_failures{0};
  std::vector<double> read_us;
  std::thread reader([&] {
    Rng rng(cfg.seed ^ 0x5eedull);
    while (!stop.load()) {
      const std::string& key = graph0[rng.Uniform(graph0.size())].key;
      const int64_t t0 = NowNs();
      auto snap = set->PinSnapshot();
      bool ok = snap.ok() && snap->Get(key).ok();
      const int64_t t1 = NowNs();
      reads.fetch_add(1);
      if (!ok) read_failures.fetch_add(1);
      read_us.push_back(MsBetween(t0, t1) * 1e3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<KV> graph = graph0;
  std::vector<std::vector<DeltaKV>> replay;
  const uint64_t shipped0 = ShippedBytes(*set);
  const uint64_t routed0 = static_cast<uint64_t>(bytes_routed->value());
  const Budget budget(cfg);
  Status status;
  if (cfg.trace) r->span_cost_ns = StartTracing();
  r->loop_start_ns = NowNs();
  while (budget.More(r->epochs)) {
    const uint64_t e = r->epochs + 1;
    std::vector<DeltaKV> delta =
        GenSsspDelta(DeltaSeed(cfg.seed, e), 0.01, &graph);
    if (cfg.trace && replay.size() < kReplayEpochs) {
      replay.push_back(delta);
    }

    const auto epoch_id = static_cast<unsigned long long>(e);
    trace::ScopedSpan loop("epoch", "epoch=%llu", epoch_id);
    IterMeter meter;
    trace::ScopedSpan append("append", "epoch=%llu", epoch_id);
    Status appended = router->AppendBatch(delta);
    const int64_t t_appended = NowNs();
    append.End();
    r->Check(appended.ok(), "append");
    if (!appended.ok()) {
      status = appended;
      break;
    }
    r->append_us.push_back(MsBetween(meter.start_ns, t_appended) * 1e3);
    std::vector<uint64_t> appended_seq;
    for (int s = 0; s < router->num_shards(); ++s) {
      appended_seq.push_back(router->shard(s)->log()->last_seq());
    }

    trace::ScopedSpan run_epoch("run_epoch", "epoch=%llu", epoch_id);
    auto stats = router->RefreshCoordinated();
    const int64_t t_committed = NowNs();
    run_epoch.End();
    r->Check(stats.ok() && stats->committed &&
                 stats->deltas_applied == delta.size(),
             "coordinated epoch");
    if (!stats.ok()) {
      status = stats.status();
      break;
    }

    trace::ScopedSpan pin_read("pin_read", "epoch=%llu", epoch_id);
    auto snap = fleet.group->PinSnapshot();
    bool covers = snap.ok();
    for (int s = 0; covers && s < router->num_shards(); ++s) {
      covers = snap->epochs()[s] >= stats->epoch &&
               router->shard(s)->committed_watermark() >= appended_seq[s];
    }
    const bool read_ok = covers && snap->Get(delta.back().key).ok();
    const int64_t t_visible = NowNs();
    pin_read.End();
    r->Check(read_ok, "pinned read does not cover the batch");

    trace::ScopedSpan replica_wait("replica_wait", "epoch=%llu", epoch_id);
    const bool replicated = WaitReplicas(*set, stats->epoch);
    const int64_t t_replicated = NowNs();
    replica_wait.End();
    r->Check(replicated, "followers did not reach the epoch");
    meter.Finish(t_replicated, r);
    loop.End();

    r->freshness_ms.push_back(MsBetween(meter.start_ns, t_visible));
    r->replica_lag_ms.push_back(MsBetween(t_committed, t_replicated));
    r->serving_epoch_ms.push_back(stats->wall_ms);
    r->epoch_ms.push_back(stats->wall_ms);
    r->exchange_rounds += static_cast<uint64_t>(stats->rounds);
    r->edges_exchanged += stats->edges_exchanged;
    r->deltas_applied += stats->deltas_applied;
    ++r->epochs;
  }
  r->loop_end_ns = NowNs();
  stop.store(true);
  reader.join();
  r->attempted += reads.load();
  r->failed += read_failures.load();
  if (read_failures.load() > 0 && r->correct) {
    r->correct = false;
    r->why = "replica-set read failed";
  }
  I2MR_RETURN_IF_ERROR(status);
  r->read_us = std::move(read_us);
  r->peak_rss_mb = PeakRssMb();
  r->shipped_bytes = ShippedBytes(*set) - shipped0;
  r->bytes_routed = static_cast<uint64_t>(bytes_routed->value()) - routed0;
  for (int s = 0; s < router->num_shards(); ++s) {
    auto b = router->shard(s)->engine()->MrbgFileBytes();
    if (b.ok()) r->mrbg_file_bytes += *b;
  }

  // Exact output checks: the merged primary snapshot and every follower's
  // pinned epoch must equal Dijkstra on the final graph.
  const auto reference = sssp::Reference(graph, kSsspSource);
  auto snap = fleet.group->PinSnapshot();
  const std::vector<KV> primary = snap.ok() ? snap->Range("", "") : std::vector<KV>{};
  r->output_error = sssp::ErrorRate(primary, reference, 1e-9);
  r->Check(primary.size() == graph.size(), "sssp primary result size");
  r->Check(r->output_error == 0, "sssp primary differs from Dijkstra");
  r->digest = DigestKVs(primary);
  for (int i = 0; i < set->replicas_per_shard(); ++i) {
    std::vector<KV> merged;
    bool same_epoch = true;
    for (int s = 0; s < set->num_shards(); ++s) {
      EpochPin pin = set->replica(s, i)->PinServing();
      same_epoch = same_epoch && pin.valid() &&
                   pin.epoch() == router->shard(s)->committed_epoch();
      if (!pin.valid()) continue;
      auto part = pin.store()->Snapshot();
      merged.insert(merged.end(), part.begin(), part.end());
    }
    r->Check(same_epoch, "follower not on the final epoch");
    r->Check(merged.size() == graph.size() &&
                 sssp::ErrorRate(merged, reference, 1e-9) == 0,
             "sssp follower differs from Dijkstra");
  }
  snap = ShardSnapshot();
  fleet.Reset();

  if (cfg.trace) {
    return Replay(cfg, sssp::MakeIterSpec("sp", kSsspSource, kWorkers, 200),
                  options.pipeline.engine, graph0, replay, r);
  }
  return MoreSetups<SsspFleet>(cfg, open, r);
}

// -- Output -------------------------------------------------------------------

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (!out_.empty()) out_ += ", ";
    out_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  }
  const std::string& json() const { return out_; }

 private:
  std::string out_;
};

double PerEpoch(double total, uint64_t epochs) {
  return epochs == 0 ? 0 : total / static_cast<double>(epochs);
}

void EndToEnd(const Result& r, Metrics* m) {
  m->Add("setup_s", Median(r.setup_s), "s");
  m->Add("freshness_p50_ms", Median(r.freshness_ms), "ms");
  m->Add("freshness_p90_ms", Percentile(r.freshness_ms, 0.9), "ms");
  m->Add("updates_per_s",
         r.loop_wall_s > 0 ? static_cast<double>(r.deltas_applied) / r.loop_wall_s
                           : 0,
         "1/s");
  m->Add("cpu_ms_per_update",
         r.deltas_applied > 0
             ? r.loop_cpu_s * 1e3 / static_cast<double>(r.deltas_applied)
             : 0,
         "ms");
  m->Add("peak_rss_mb", r.peak_rss_mb, "MB");
}

// Spans reported per layer as "span.<name>.self_ms".
const char* const kSpanMetrics[] = {
    // benchmark: the closed loop
    "epoch", "append", "run_epoch", "pin_read", "replica_wait",
    // pipeline + core
    "pipeline.epoch", "engine.refresh", "engine.iteration", "epoch.stage",
    "epoch.flip", "epoch.cleanup",
    // mr + mrbg tasks (worker threads)
    "task.map", "task.reduce", "task.mrbg_load", "task.shuffle", "task.sort",
    // coordinated serving + replication
    "serving.coordinated_epoch", "epoch.round", "exchange.round",
    "exchange.route", "replica.ship", "replica.apply"};

void PerLayer(const Result& r, Metrics* m) {
  const uint64_t n = r.epochs;
  m->Add("pipeline.append_us_p50", Median(r.append_us), "us");
  m->Add("pipeline.append_us_p99", Percentile(r.append_us, 0.99), "us");
  m->Add("pipeline.epoch_ms", Median(r.epoch_ms), "ms");
  m->Add("pipeline.commit_ms", Median(r.commit_ms), "ms");
  m->Add("pipeline.other_ms", Median(r.other_ms), "ms");
  m->Add("core.refresh_ms", Median(r.refresh_ms), "ms");
  m->Add("core.iterations", PerEpoch(r.iterations, n), "count");
  m->Add("core.replay_refresh_ms", Median(r.replay_refresh_ms), "ms");
  m->Add("core.map_instances", static_cast<double>(r.map_instances), "count");
  m->Add("core.reduced_keys", static_cast<double>(r.reduced_keys), "count");
  m->Add("core.propagated_pairs", static_cast<double>(r.propagated_pairs),
         "count");
  m->Add("mr.map_ms", PerEpoch(r.map_ms, n), "task-ms");
  m->Add("mr.shuffle_ms", PerEpoch(r.shuffle_ms, n), "task-ms");
  m->Add("mr.sort_ms", PerEpoch(r.sort_ms, n), "task-ms");
  m->Add("mr.reduce_ms", PerEpoch(r.reduce_ms, n), "task-ms");
  m->Add("mr.shuffle_bytes", static_cast<double>(r.shuffle_bytes), "bytes");
  m->Add("mrbg.merge_ms", PerEpoch(r.merge_ms, n), "task-ms");
  m->Add("mrbg.io_reads", static_cast<double>(r.mrbg_io_reads), "count");
  m->Add("mrbg.bytes_read", static_cast<double>(r.mrbg_bytes_read), "bytes");
  m->Add("mrbg.file_bytes", static_cast<double>(r.mrbg_file_bytes), "bytes");
  m->Add("serving.epoch_ms", Median(r.serving_epoch_ms), "ms");
  m->Add("serving.exchange_rounds",
         PerEpoch(static_cast<double>(r.exchange_rounds), n), "count");
  m->Add("serving.edges_exchanged",
         PerEpoch(static_cast<double>(r.edges_exchanged), n), "count");
  m->Add("serving.bytes_routed",
         PerEpoch(static_cast<double>(r.bytes_routed), n), "bytes");
  m->Add("serving.read_us_p50", Median(r.read_us), "us");
  m->Add("serving.read_us_p99", Percentile(r.read_us, 0.99), "us");
  m->Add("replication.shipped_bytes_per_epoch",
         PerEpoch(static_cast<double>(r.shipped_bytes), n), "bytes");
  m->Add("replication.lag_p50_ms", Median(r.replica_lag_ms), "ms");
  m->Add("replication.lag_p90_ms", Percentile(r.replica_lag_ms, 0.9), "ms");
  m->Add("io.write_bytes_per_update",
         r.deltas_applied > 0 ? static_cast<double>(r.write_bytes) /
                                    static_cast<double>(r.deltas_applied)
                              : 0,
         "bytes");
  m->Add("io.fsyncs_per_epoch", PerEpoch(static_cast<double>(r.fsyncs), n),
         "count");

  // Self time per epoch of the loop's spans: the benchmark's own around each
  // call, then the library's, grouped by the layer they measure.
  const auto events = trace::TraceCollector::Get()->Snapshot();
  const auto self = SelfMsByName(events, r.loop_start_ns, r.loop_end_ns);
  for (const char* name : kSpanMetrics) {
    auto it = self.find(name);
    m->Add(std::string("span.") + name + ".self_ms",
           it == self.end() ? 0.0 : PerEpoch(it->second, n), "ms");
  }
  uint64_t loop_events = 0;
  for (const auto& e : events) {
    if (e.ts_ns >= r.loop_start_ns && e.ts_ns < r.loop_end_ns) ++loop_events;
  }
  m->Add("trace.spans", static_cast<double>(events.size()), "count");
  m->Add("trace.overhead_us_per_epoch",
         PerEpoch(static_cast<double>(loop_events) * r.span_cost_ns / 1e3, n),
         "us");
  m->Add("trace.freshness_p50_ms", Median(r.freshness_ms), "ms");
}

void PrintHost(const Config& cfg, const Result& r,
               std::pair<uint64_t, uint64_t> steal0,
               std::pair<uint64_t, uint64_t> steal1, double cpu_s,
               double wall_s) {
  std::string setups;
  for (double s : r.setup_s) {
    setups += (setups.empty() ? "" : ", ") + std::to_string(s);
  }
  const double dt = static_cast<double>(steal1.second - steal0.second);
  const double steal_pct =
      dt > 0 ? 100.0 * static_cast<double>(steal1.first - steal0.first) / dt
             : 0;
  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"build_type\": \"%s\", \"nproc\": %ld, "
      "\"steal_pct\": %.3f, \"process_cpu_s\": %.3f, \"wall_s\": %.3f, "
      "\"epochs\": %" PRIu64 ", \"deltas_applied\": %" PRIu64
      ", \"output_error\": %.6g, \"digest\": \"%016" PRIx64
      "\", \"setup_s_all\": [%s], \"span_cost_ns\": %.1f, "
      "\"trace_dropped\": %" PRIu64 ", \"why\": \"%s\"}}\n",
      cfg.workload.c_str(), cfg.seed, cfg.trace ? 1 : 0, FRESHBENCH_BUILD_TYPE,
      sysconf(_SC_NPROCESSORS_ONLN), steal_pct, cpu_s, wall_s, r.epochs,
      r.deltas_applied, r.output_error, r.digest, setups.c_str(), r.span_cost_ns,
      cfg.trace ? trace::TraceCollector::Get()->approx_dropped() : 0,
      r.why.c_str());
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") cfg->workload = v;
    else if (flag == "--seed") cfg->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") cfg->seconds = std::atof(v);
    else if (flag == "--trace") cfg->trace = std::atoi(v) != 0;
    else if (flag == "--root") cfg->root = v;
    else if (flag == "--epochs") cfg->epochs = std::atoi(v);
    else if (flag == "--vertices") cfg->vertices = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return argc % 2 == 1 && !cfg->root.empty() && cfg->seconds > 0 &&
         cfg->vertices >= 100;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--root DIR [--epochs N] [--vertices N]\n",
                 argv[0]);
    return 2;
  }
  const bool bulk = cfg.workload == "pagerank-bulk";
  const bool pagerank = bulk || cfg.workload == "pagerank-trickle";
  if (!pagerank && cfg.workload != "sssp-2shard-replicated") {
    std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  const std::string trace_path = JoinPath(
      cfg.root,
      "trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json");
  cfg.root = JoinPath(cfg.root, cfg.workload + "-" + std::to_string(getpid()));
  if (!ResetDir(cfg.root).ok()) {
    std::fprintf(stderr, "cannot create %s\n", cfg.root.c_str());
    return 2;
  }

  Result r;
  const auto steal0 = StealJiffies();
  const double cpu0 = CpuSeconds();
  const int64_t wall0 = NowNs();
  Status st = pagerank ? RunPagerank(cfg, bulk, &r) : RunSssp(cfg, &r);
  const auto steal1 = StealJiffies();
  (void)RemoveAll(cfg.root);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    r.Fail(st.ToString());
  }
  if (r.epochs == 0) r.Fail("no epoch measured");

  if (cfg.trace) {
    auto* collector = trace::TraceCollector::Get();
    collector->Stop();
    Status written = collector->ExportChromeJson(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_path.c_str(),
                   written.ToString().c_str());
      r.Fail("trace not written");
    }
  }
  PrintHost(cfg, r, steal0, steal1, CpuSeconds() - cpu0,
            MsBetween(wall0, NowNs()) / 1e3);

  Metrics m;
  if (cfg.trace) {
    PerLayer(r, &m);
  } else {
    EndToEnd(r, &m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", std::max<uint64_t>(r.attempted, 1),
              r.failed, m.json().c_str());
  return r.correct ? 0 : 1;
}
