// Replicated serving with failover: one PageRank computation across two
// coordinated shards (cross-shard contributions exchanged, epochs
// committed on both shards under a barrier), each primary feeding two
// read replicas by delta-log shipping.
// Every follower is a full vertical slice — its own root with shipped log
// segments and epoch dirs, laid out byte-for-byte like a shard root — so
// a follower serves pinned epoch-consistent reads through the exact same
// snapshot machinery as the primary, and promoting one is just "open a
// pipeline over its root".
//
// The walk-through:
//   1. Bootstrap the sharded computation, open a ReplicaSet (2 followers
//      per shard), and let the shippers catch everyone up.
//   2. Stream deltas while load-balanced reads fan out across primaries
//      and caught-up followers; watch per-replica lag and shipped bytes.
//   3. Kill a follower: routing skips it, reads keep flowing; restart it
//      and the shipper heals it back to zero lag.
//   4. Kill shard 0's PRIMARY: reads continue from its followers at the
//      last durably committed epoch; the router refuses writes to the
//      shard and coordinated epochs. Promote the freshest follower — A/B
//      verification, then the router opens the shard's pipeline over its
//      root and swaps it in — and writes resume, serving exactly the
//      pre-crash committed state. The fleet's ranks then still match an
//      offline recompute of the whole graph.
//
// Build: cmake --build build && ./build/examples/replicated_serving
#include <cstdio>
#include <string>
#include <vector>

#include "apps/pagerank.h"
#include "data/graph_gen.h"
#include "replication/replica_set.h"
#include "serving/shard_router.h"

using namespace i2mr;

namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

void PrintFleet(const ReplicaSet& set) {
  for (int s = 0; s < set.num_shards(); ++s) {
    std::printf("  shard %d: primary %s", s,
                set.primary_dead(s) ? "DEAD" : "alive");
    for (int i = 0; i < set.replicas_per_shard(); ++i) {
      const FollowerReplica* f = set.replica(s, i);
      const char* role = set.IsReplicaPromoted(s, i) ? "(primary)"
                         : set.IsReplicaStale(s, i)  ? "(stale)"
                                                     : "(serving)";
      std::printf(" | replica%d epoch=%llu lag=%llu %s", i,
                  (unsigned long long)f->applied_epoch(),
                  (unsigned long long)set.ReplicaLag(s, i), role);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  GraphGenOptions gen;
  gen.num_vertices = 1200;
  gen.avg_degree = 6;
  auto graph = GenGraph(gen);

  // -- Primaries: a 2-shard coordinated router -------------------------------
  ShardRouterOptions options;
  options.num_shards = 2;
  options.workers_per_shard = 2;
  options.pipeline.spec = pagerank::MakeIterSpec("rank", 2, 80, 1e-8);
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.log.segment_bytes = 16 << 10;  // rotate: give shipping work
  options.pipeline.log.archive_purged = true;
  options.pipeline.log.compress_archive = true;   // followers read .lzd too
  auto router = ShardRouter::Open("/tmp/i2mr_replicated_serving", "rank",
                                  options);
  if (!router.ok()) {
    std::fprintf(stderr, "open: %s\n", router.status().ToString().c_str());
    return 1;
  }
  if (!(*router)->Bootstrap(graph, UnitState(graph)).ok()) return 1;

  // -- Followers: two read replicas per shard, fed by delta-log shipping -----
  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  ro.max_replica_lag_epochs = 4;
  auto set = ReplicaSet::Open(router->get(),
                              "/tmp/i2mr_replicated_serving_replicas", ro);
  if (!set.ok()) {
    std::fprintf(stderr, "replicas: %s\n", set.status().ToString().c_str());
    return 1;
  }
  if (!(*set)->SyncAll().ok()) return 1;
  std::printf("bootstrapped %zu pages; fleet after initial ship:\n",
              graph.size());
  PrintFleet(**set);

  // -- Stream deltas; reads fan out over primaries + caught-up followers -----
  const std::string probe = graph.front().key;
  for (int round = 1; round <= 3; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.05;
    dopt.seed = 300 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    if (!(*set)->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
             .ok() ||
        !(*set)->DrainAll().ok() || !(*set)->SyncAll().ok()) {
      return 1;
    }
    auto r = (*set)->Get(probe);
    if (!r.ok()) return 1;
    std::printf("round %d: +%3zu deltas, rank(%s)=%s\n", round, delta.size(),
                probe.c_str(), r->c_str());
  }
  PrintFleet(**set);

  // -- Kill a follower: routing skips it, the shipper heals it on restart ----
  if (!(*set)->KillReplica(0, 0).ok()) return 1;
  for (int i = 0; i < 50; ++i) {
    if (!(*set)->Get(probe).ok()) return 1;  // reads unaffected
  }
  if (!(*set)->RestartReplica(0, 0).ok() || !(*set)->SyncAll().ok()) return 1;
  std::printf("killed + restarted shard0/replica0; healed to lag %llu\n",
              (unsigned long long)(*set)->ReplicaLag(0, 0));

  // -- Kill shard 0's primary and fail over -----------------------------------
  uint64_t pre_crash_epoch = (*router)->shard(0)->committed_epoch();
  auto pre_crash_rank = (*set)->Get(probe);
  if (!pre_crash_rank.ok() || !(*set)->KillPrimary(0).ok()) return 1;
  // Reads still served (by shard 0's followers); writes to the shard refuse.
  if (!(*set)->Get(probe).ok()) return 1;
  if ((*set)->Append(DeltaKV{DeltaOp::kInsert, probe, "0.5"}).ok()) {
    std::fprintf(stderr, "a write to the dead primary's shard was acked\n");
    return 1;
  }
  auto promoted = (*set)->Promote(0);
  if (!promoted.ok()) {
    std::fprintf(stderr, "promote: %s\n",
                 promoted.status().ToString().c_str());
    return 1;
  }
  std::printf("primary 0 killed (writes refused while dead); "
              "promoted replica%d at epoch %llu (pre-crash %llu)\n",
              *promoted,
              (unsigned long long)(*set)->primary(0)->committed_epoch(),
              (unsigned long long)pre_crash_epoch);

  // The promoted primary serves exactly the pre-crash committed state, and
  // writes flow again — through the new primary, shipped to the survivor.
  auto post = (*set)->Get(probe);
  if (!post.ok() || *post != *pre_crash_rank) return 1;
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 999;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  if (!(*set)->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
           .ok() ||
      !(*set)->DrainAll().ok() || !(*set)->SyncAll().ok()) {
    return 1;
  }
  std::printf("post-failover: rank(%s)=%s matches pre-crash; new deltas "
              "committed and shipped\n", probe.c_str(), post->c_str());
  PrintFleet(**set);

  // Ground truth: both primaries together (one of them promoted) serve the
  // ranks an offline recompute of the WHOLE graph gives.
  std::vector<KV> served;
  for (int s = 0; s < (*set)->num_shards(); ++s) {
    auto part = (*set)->primary(s)->ServingSnapshot();
    served.insert(served.end(), part.begin(), part.end());
  }
  const double error =
      pagerank::MeanError(served, pagerank::Reference(graph, 80, 1e-8));
  std::printf("mean error vs whole-graph offline recompute: %.5f%%\n",
              error * 100.0);
  return error < 1e-4 ? 0 : 1;
}
