// Continuous delta-ingestion: every app becomes a streaming app.
//
// Two computations run side by side, each behind a one-shard ShardRouter:
// a PageRank ranking over an evolving web graph and a K-Means clustering
// over an evolving point set (all-to-one apps such as K-Means always run on
// one shard). Each router's background coordinator drains its durable
// delta log into incremental refresh epochs (min-batch / max-lag triggers)
// while point lookups keep answering from the last committed epoch.
//
// Exits 1 unless both routers drain with no failed epoch, the PageRank
// ranks stay within 5% mean error of an offline recompute (CPC filtering
// is approximate by design, paper §5.3) and K-Means refreshed at least
// once after bootstrap.
//
// Build: cmake --build build && ./build/examples/streaming_pipeline
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "apps/kmeans.h"
#include "apps/pagerank.h"
#include "common/metrics.h"
#include "data/graph_gen.h"
#include "data/points_gen.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

constexpr const char* kRoot = "/tmp/i2mr_streaming_example";

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

/// A one-shard router for `name` under its own root.
std::unique_ptr<ShardRouter> OpenOneShard(const std::string& name,
                                          PipelineOptions pipeline) {
  ShardRouterOptions options;
  options.num_shards = 1;
  options.workers_per_shard = 2;
  options.poll_interval_ms = 5;
  options.pipeline = std::move(pipeline);
  auto router =
      ShardRouter::Open(std::string(kRoot) + "/" + name, name, options);
  if (!router.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 router.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*router);
}

int64_t Count(const ShardRouter& router, const std::string& suffix) {
  return router.metrics()->Get("serving." + router.name() + "." + suffix)
      ->value();
}

}  // namespace

int main() {
  // -- PageRank over a live web graph ---------------------------------------
  GraphGenOptions ggen;
  ggen.num_vertices = 3000;
  ggen.avg_degree = 8;
  auto graph = GenGraph(ggen);

  PipelineOptions pr_options;
  pr_options.spec = pagerank::MakeIterSpec("pagerank", 4, 60, 1e-6);
  pr_options.engine.filter_threshold = 0.1;  // CPC (§5.3)
  pr_options.min_batch = 50;    // refresh once 50 updates are pending...
  pr_options.max_lag_ms = 200;  // ...or a pending update is 200ms old
  // Segmented delta log: rotate small segments and keep consumed ones in
  // log/archive/ instead of unlinking them (cheap replay/debug trail).
  pr_options.log.segment_bytes = 64 << 10;
  pr_options.log.archive_purged = true;
  auto pr = OpenOneShard("pagerank", pr_options);
  if (pr == nullptr) return 1;
  if (!pr->Bootstrap(graph, UnitState(graph)).ok()) return 1;
  std::printf("pagerank bootstrapped: %zu pages, epoch %llu\n", graph.size(),
              (unsigned long long)pr->CommittedEpochs()[0]);

  // -- K-Means over a live point set ----------------------------------------
  PointsGenOptions pgen;
  pgen.num_points = 2000;
  pgen.dims = 4;
  pgen.num_clusters = 8;
  auto points = GenPoints(pgen);

  PipelineOptions km_options;
  km_options.spec = kmeans::MakeIterSpec("kmeans", 4, 30, 1e-5);
  km_options.engine.maintain_mrbg = false;  // §5.2: global recompute app
  km_options.min_batch = 100;
  km_options.max_lag_ms = 300;
  // Power-failure durability: appends and epoch commits are fsync'd (see
  // BENCH_pipeline.json "durability" for what each synced append costs).
  km_options.durability = DurabilityMode::kPowerFailure;
  auto km = OpenOneShard("kmeans", km_options);
  if (km == nullptr) return 1;
  if (!km->Bootstrap(points, kmeans::InitialState(points, 8)).ok()) return 1;
  std::printf("kmeans bootstrapped: %zu points, 8 centroids\n", points.size());

  // -- Live traffic ---------------------------------------------------------
  pr->Start();
  km->Start();
  const std::string probe = graph.front().key;
  for (int round = 1; round <= 4; ++round) {
    // The web evolves...
    GraphDeltaOptions gd;
    gd.update_fraction = 0.03;
    gd.seed = 500 + round;
    auto graph_delta = GenGraphDelta(ggen, gd, &graph);
    for (const auto& d : graph_delta) {
      if (!pr->Append(d).ok()) return 1;
    }
    // ...and so do the points.
    auto points_delta = GenPointsDelta(pgen, 0.05, 0.0, 600 + round, &points);
    if (!km->AppendBatch(std::vector<DeltaKV>(points_delta.begin(),
                                              points_delta.end()))
             .ok()) {
      return 1;
    }

    // Reads keep flowing while the refreshes run in the background.
    auto rank = pr->Lookup(probe);
    auto centroids = km->Lookup(kmeans::kStateKey);
    if (!rank.ok() || !centroids.ok()) return 1;
    std::printf(
        "round %d: +%zu graph / +%zu point updates | served rank(%s)=%s "
        "from epoch %llu\n",
        round, graph_delta.size(), points_delta.size(), probe.c_str(),
        rank->c_str(), (unsigned long long)pr->CommittedEpochs()[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }

  // Let the coordinators finish (bounded: a persistently failing epoch
  // must not hang the example), then stop them.
  for (int i = 0; i < 1500 && (pr->TotalPending() > 0 || km->TotalPending() > 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  pr->Stop();
  km->Stop();

  bool ok = true;
  for (const ShardRouter* router : {pr.get(), km.get()}) {
    const int64_t failures = Count(*router, "epoch_failures");
    std::printf(
        "%s: %lld epochs committed, %lld deltas applied, %lld failures, "
        "%llu pending\n",
        router->name().c_str(),
        (long long)Count(*router, "shard0.epochs_committed"),
        (long long)Count(*router, "shard0.deltas_applied"),
        (long long)failures, (unsigned long long)router->TotalPending());
    if (failures != 0 || router->TotalPending() != 0) ok = false;
  }
  Pipeline* pr_shard = pr->shard(0);
  std::printf(
      "pagerank delta log: %llu live segment file(s), purge watermark %llu "
      "(consumed segments in log/archive/)\n",
      (unsigned long long)pr_shard->log()->segment_files(),
      (unsigned long long)pr_shard->log()->purge_watermark());

  // Final accuracy check against an offline recompute of the last snapshot.
  auto reference = pagerank::Reference(graph, 60, 1e-6);
  const double error =
      pagerank::MeanError(pr_shard->ServingSnapshot(), reference);
  std::printf("pagerank mean error vs offline recompute: %.5f%%\n",
              error * 100.0);
  if (!(error < 0.05)) ok = false;
  const uint64_t km_epoch = km->CommittedEpochs()[0];
  std::printf("kmeans serving epoch: %llu\n", (unsigned long long)km_epoch);
  if (km_epoch < 1) ok = false;

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
