// Tests for elastic online resharding (serving/reshard.h): N -> M moves
// under streaming deltas equal a fresh M-shard bootstrap (exact SSSP /
// ConComp), crash injection at every coordinator stage recovers to exactly
// the old map or the new map (never a mix), snapshots pinned before the
// flip keep serving the old generation with zero failed reads, a warm
// retry reuses the content-addressed chunks of a crashed attempt, the
// reshard metrics/health surface, the PARTMAP record is authoritative on
// reopen, and the replication layer detects the generation bump, re-syncs
// followers, and still promotes on primary death.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/concomp.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "common/health.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "replication/replica_set.h"
#include "serving/partition_map.h"
#include "serving/reshard.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"
#include "shard_test_util.h"

namespace i2mr {
namespace {

/// Insert the undirected edge a <-> b (labels only merge downward, so
/// incremental ConComp equals a fresh bootstrap of the final graph).
std::vector<DeltaKV> LinkVertices(std::vector<KV>* graph, int a, int b) {
  std::vector<DeltaKV> batch;
  for (auto [self, other] : {std::pair<int, int>{a, b}, {b, a}}) {
    const std::string key = PaddedNum(self);
    for (auto& kv : *graph) {
      if (kv.key != key) continue;
      std::string next = kv.value + " " + PaddedNum(other);
      batch.push_back(DeltaKV{DeltaOp::kDelete, kv.key, kv.value});
      batch.push_back(DeltaKV{DeltaOp::kInsert, kv.key, next});
      kv.value = next;
      break;
    }
  }
  return batch;
}

class ReshardingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_resharding";
    ASSERT_TRUE(ResetDir(root_).ok());
    fault::FaultInjector::Instance()->Reset();
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }
  std::string root_;
};

// ---------------------------------------------------------------------------
// Parity: N -> M under streaming deltas == fresh M-shard bootstrap
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, SsspReshardUnderStreamingDeltasEqualsFreshBootstrap) {
  struct Shape {
    int from, to;
  };
  for (Shape shape : {Shape{2, 4}, Shape{4, 2}, Shape{3, 5}}) {
    SCOPED_TRACE("shape " + std::to_string(shape.from) + "->" +
                 std::to_string(shape.to));
    const int n = 24;
    auto graph = RingGraph(n, /*weighted=*/true);
    const std::string source = PaddedNum(0);
    auto spec = sssp::MakeIterSpec("sp", source, 2, 200);
    const auto init = InitStateFor(spec, graph);

    std::string croot =
        JoinPath(root_, "sssp_" + std::to_string(shape.from) + "to" +
                            std::to_string(shape.to));
    auto router = ShardRouter::Open(croot, "sp",
                                    CoordinatedOptions(spec, shape.from));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());

    // One committed delta epoch before the move.
    ASSERT_TRUE(
        (*router)->AppendBatch(AddShortcut(&graph, 3, 3 + n / 2, "0.5")).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());

    // Deltas keep streaming DURING the move: right after the dual journal
    // arms and again mid-transfer. They reach the destinations through the
    // journal + catch-up, never through the chunk transfer.
    size_t mid_move = 0;
    ReshardOptions opts;
    opts.new_num_shards = shape.to;
    opts.chunk_max_bytes = 512;  // force many chunks even on a tiny graph
    opts.crash_hook = [&](const std::string& stage) {
      if (stage == "dual_journal") {
        auto batch = AddShortcut(&graph, 5, (5 + n / 3) % n, "0.25");
        mid_move += batch.size();
        EXPECT_TRUE((*router)->AppendBatch(batch).ok());
      } else if (stage == "transfer") {
        auto batch = AddShortcut(&graph, 9, (9 + n / 2) % n, "0.125");
        mid_move += batch.size();
        EXPECT_TRUE((*router)->AppendBatch(batch).ok());
      }
      return false;
    };
    ReshardCoordinator coordinator(router->get(), opts);
    auto stats = coordinator.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->old_shards, shape.from);
    EXPECT_EQ(stats->new_shards, shape.to);
    EXPECT_EQ(stats->old_generation, 0u);
    EXPECT_EQ(stats->new_generation, 1u);
    EXPECT_GT(stats->chunks_total, 0u);
    EXPECT_GT(stats->bytes_moved, 0u);
    EXPECT_EQ(stats->dual_journal_deltas, mid_move);
    ASSERT_GT(mid_move, 0u);

    EXPECT_EQ((*router)->num_shards(), shape.to);
    EXPECT_EQ((*router)->generation(), 1u);
    EXPECT_EQ((*router)->partition_map(),
              (PartitionMap{1, shape.to}));

    // The fleet keeps ingesting on the new map.
    ASSERT_TRUE(
        (*router)
            ->AppendBatch(AddShortcut(&graph, 14, (14 + n / 2) % n, "0.5"))
            .ok());
    ASSERT_TRUE((*router)->DrainAll().ok());
    EXPECT_EQ((*router)->CommittedEpochs().size(),
              static_cast<size_t>(shape.to));

    // Oracle: a fresh M-shard fleet bootstrapped from the final graph.
    auto oracle = ShardRouter::Open(JoinPath(croot, "oracle"), "sp",
                                    CoordinatedOptions(spec, shape.to));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_TRUE((*oracle)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
    ExpectNumericParity(ShardedSnapshot(**router), ShardedSnapshot(**oracle),
                        1e-9, "sssp reshard");
  }
}

TEST_F(ReshardingTest, ConcompReshardUnderStreamingDeltasEqualsFreshBootstrap) {
  struct Shape {
    int from, to;
  };
  for (Shape shape : {Shape{2, 4}, Shape{3, 5}}) {
    SCOPED_TRACE("shape " + std::to_string(shape.from) + "->" +
                 std::to_string(shape.to));
    GraphGenOptions gen;
    gen.num_vertices = 48;
    gen.avg_degree = 2;  // sparse: several components spanning shards
    auto graph = concomp::Symmetrize(GenGraph(gen));
    auto spec = concomp::MakeIterSpec("cc", 2, 200);
    const auto init = InitStateFor(spec, graph);

    std::string croot =
        JoinPath(root_, "cc_" + std::to_string(shape.from) + "to" +
                            std::to_string(shape.to));
    auto router = ShardRouter::Open(croot, "cc",
                                    CoordinatedOptions(spec, shape.from));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
    ASSERT_TRUE((*router)->AppendBatch(LinkVertices(&graph, 1, 30)).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());

    ReshardOptions opts;
    opts.new_num_shards = shape.to;
    opts.chunk_max_bytes = 512;
    opts.crash_hook = [&](const std::string& stage) {
      // Components merge mid-move: the label drop must flow through the
      // dual journal into the destination fleet.
      if (stage == "transfer") {
        EXPECT_TRUE((*router)->AppendBatch(LinkVertices(&graph, 7, 41)).ok());
      }
      return false;
    };
    ReshardCoordinator coordinator(router->get(), opts);
    auto stats = coordinator.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->dual_journal_deltas, 0u);
    ASSERT_TRUE((*router)->AppendBatch(LinkVertices(&graph, 12, 25)).ok());
    ASSERT_TRUE((*router)->DrainAll().ok());

    auto oracle = ShardRouter::Open(JoinPath(croot, "oracle"), "cc",
                                    CoordinatedOptions(spec, shape.to));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_TRUE((*oracle)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
    ExpectExactParity(ShardedSnapshot(**router), ShardedSnapshot(**oracle),
                      "concomp reshard");
    // And the labels are actually right, not just consistently wrong.
    EXPECT_EQ(concomp::ErrorRate(ShardedSnapshot(**router),
                                 concomp::Reference(graph)),
              0.0);
  }
}

// ---------------------------------------------------------------------------
// The partition map is the single modulus source, across generations
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, ShardOfRoutesThroughThePartitionMapAcrossGenerations) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router =
      ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 3));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());

  // Generation 0: the router's routing IS the map's.
  PartitionMap g0 = (*router)->partition_map();
  EXPECT_EQ(g0.num_shards, 3);
  for (int i = 0; i < 100; ++i) {
    std::string key = PaddedNum(i);
    EXPECT_EQ((*router)->ShardOf(key), g0.ShardOf(key));
  }

  ReshardOptions opts;
  opts.new_num_shards = 4;
  ReshardCoordinator coordinator(router->get(), opts);
  ASSERT_TRUE(coordinator.Run().ok());

  // Generation 1: routing follows the NEW map (and actually changed for
  // some keys — the regression this test pins is a layer still computing
  // `hash % old_count` after the count moved).
  PartitionMap g1 = (*router)->partition_map();
  EXPECT_EQ(g1.generation, 1u);
  EXPECT_EQ(g1.num_shards, 4);
  bool moved = false;
  for (int i = 0; i < 100; ++i) {
    std::string key = PaddedNum(i);
    EXPECT_EQ((*router)->ShardOf(key), g1.ShardOf(key));
    moved = moved || g1.ShardOf(key) != g0.ShardOf(key);
  }
  EXPECT_TRUE(moved);
  // Every key is served by the shard the new map names, and owns_key kept
  // the engines' boundary filter on the same map: a lookup through the
  // router and a direct lookup on the owning shard agree.
  for (const auto& kv : graph) {
    auto via_router = (*router)->Lookup(kv.key);
    ASSERT_TRUE(via_router.ok()) << kv.key;
    auto direct = (*router)->shard(g1.ShardOf(kv.key))->Lookup(kv.key);
    ASSERT_TRUE(direct.ok()) << kv.key;
    EXPECT_EQ(*via_router, *direct);
  }
}

TEST_F(ReshardingTest, PartmapRecordOverridesMismatchedOptionsOnReopen) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  std::map<std::string, std::string> before;
  {
    auto router =
        ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE(
        (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
    ReshardOptions opts;
    opts.new_num_shards = 4;
    ReshardCoordinator coordinator(router->get(), opts);
    ASSERT_TRUE(coordinator.Run().ok());
    for (const auto& kv : graph) {
      auto v = (*router)->Lookup(kv.key);
      ASSERT_TRUE(v.ok());
      before[kv.key] = *v;
    }
  }
  // Reopen with a STALE shard count in the options (an operator config
  // that never learned about the reshard): the durable PARTMAP record
  // names the partitioning the on-disk dirs were actually built with, and
  // it wins.
  auto options = CoordinatedOptions(spec, 2);
  options.reset = false;
  auto reopened = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_shards(), 4);
  EXPECT_EQ((*reopened)->generation(), 1u);
  ASSERT_TRUE((*reopened)->bootstrapped());
  for (const auto& [key, value] : before) {
    auto v = (*reopened)->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
}

// ---------------------------------------------------------------------------
// Crash injection: every stage recovers to exactly old-map or new-map
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, CrashAtEveryStageRecoversToExactlyOldOrNewMap) {
  const int n = 24;
  auto base_graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);

  for (const std::string stage :
       {"plan", "dual_journal", "transfer", "flip", "flip_marker"}) {
    SCOPED_TRACE("stage " + stage);
    auto graph = base_graph;
    std::string croot = JoinPath(root_, "crash_" + stage);
    std::map<std::string, std::string> before;
    {
      auto router =
          ShardRouter::Open(croot, "sp", CoordinatedOptions(spec, 2));
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      ASSERT_TRUE(
          (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
      ASSERT_TRUE(
          (*router)->AppendBatch(AddShortcut(&graph, 3, 15, "0.5")).ok());
      ASSERT_TRUE((*router)->DrainAll().ok());
      for (const auto& kv : graph) {
        auto v = (*router)->Lookup(kv.key);
        ASSERT_TRUE(v.ok());
        before[kv.key] = *v;
      }

      ReshardOptions opts;
      opts.new_num_shards = 3;
      opts.chunk_max_bytes = 512;
      opts.crash_hook = [&](const std::string& s) { return s == stage; };
      ReshardCoordinator coordinator(router->get(), opts);
      auto stats = coordinator.Run();
      ASSERT_FALSE(stats.ok()) << "simulated crash must surface";

      if (stage == "flip_marker") {
        // The decision record is durable but the topology never swapped:
        // the old in-process topology must refuse reads rather than serve
        // state that recovery is about to replace.
        EXPECT_TRUE((*router)->poisoned());
        EXPECT_FALSE((*router)->Lookup(graph.front().key).ok());
        // ...and refuse appends too: an ack into the superseded
        // generation's donor logs would be discarded by the roll-forward.
        EXPECT_FALSE((*router)
                         ->Append(DeltaKV{DeltaOp::kInsert, graph.front().key,
                                          graph.front().value})
                         .ok());
      } else {
        // Anywhere earlier: the move simply didn't happen. Old map, old
        // values, journal disarmed, and the fleet still ingests.
        EXPECT_EQ((*router)->generation(), 0u);
        EXPECT_EQ((*router)->num_shards(), 2);
        for (const auto& [key, value] : before) {
          auto v = (*router)->Lookup(key);
          ASSERT_TRUE(v.ok()) << key;
          EXPECT_EQ(*v, value) << key;
        }
        ASSERT_TRUE(
            (*router)->AppendBatch(AddShortcut(&graph, 7, 19, "0.5")).ok());
        ASSERT_TRUE((*router)->DrainAll().ok());
        for (const auto& kv : graph) {
          auto v = (*router)->Lookup(kv.key);
          ASSERT_TRUE(v.ok());
          before[kv.key] = *v;
        }
      }
      // The simulated coordinator is dead; reopen "after the crash".
    }
    auto options = CoordinatedOptions(spec, 2);
    options.reset = false;
    auto reopened = ShardRouter::Open(croot, "sp", options);
    ASSERT_TRUE(reopened.ok())
        << stage << ": " << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->bootstrapped()) << stage;
    if (stage == "flip_marker") {
      // Roll FORWARD: the marker's map is installed and the destination
      // fleet — durably committed before the marker was written — serves.
      EXPECT_EQ((*reopened)->generation(), 1u);
      EXPECT_EQ((*reopened)->num_shards(), 3);
    } else {
      EXPECT_EQ((*reopened)->generation(), 0u);
      EXPECT_EQ((*reopened)->num_shards(), 2);
    }
    // Either way: exactly the committed values, never a mix.
    for (const auto& [key, value] : before) {
      auto v = (*reopened)->Lookup(key);
      ASSERT_TRUE(v.ok()) << stage << "/" << key;
      EXPECT_EQ(*v, value) << stage << "/" << key;
    }
    // The marker never outlives recovery.
    EXPECT_FALSE(FileExists(JoinPath(croot, "sp.RESHARD"))) << stage;
    // And the recovered fleet keeps ingesting on whichever map it serves.
    ASSERT_TRUE(
        (*reopened)->AppendBatch(AddShortcut(&graph, 11, 23, "0.25")).ok());
    ASSERT_TRUE((*reopened)->DrainAll().ok()) << stage;
  }
}

TEST_F(ReshardingTest, FaultInjectorCrashPointsFireWithoutAWiredHook) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router =
      ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());

  // The same I2MR_FAULTS grammar the chaos harness uses: a kill-at-point
  // rule on the transfer stage.
  ASSERT_TRUE(fault::FaultInjector::Instance()
                  ->LoadSpec("op=crash,path=reshard/transfer,kind=crash")
                  .ok());
  ReshardOptions opts;
  opts.new_num_shards = 3;
  ReshardCoordinator coordinator(router->get(), opts);
  EXPECT_FALSE(coordinator.Run().ok());
  fault::FaultInjector::Instance()->Reset();

  // Old map stands; a clean retry completes the move.
  EXPECT_EQ((*router)->generation(), 0u);
  ReshardCoordinator retry(router->get(), opts);
  auto stats = retry.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ((*router)->num_shards(), 3);
}

// ---------------------------------------------------------------------------
// Acked-write safety under real I/O faults
// ---------------------------------------------------------------------------

// A delta the donor acked mid-move but the dual journal failed to mirror
// must abort the move before the cutover commit point: past the flip it
// would be permanently missing from the new generation — silent
// acked-write loss. Aborting is safe; the old map serves every acked
// write.
TEST_F(ReshardingTest, DualJournalMirrorFailureAbortsTheMoveBeforeCutover) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router = ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());

  // Right after the journal arms: every write under the staging fleet's
  // generation-1 dirs fails, so the donors ack a batch whose mirror is
  // lost. The faults lift immediately after, so nothing else is affected.
  size_t acked = 0;
  ReshardOptions opts;
  opts.new_num_shards = 3;
  opts.chunk_max_bytes = 512;
  opts.crash_hook = [&](const std::string& stage) {
    if (stage == "dual_journal") {
      fault::FaultRule rule;
      rule.ops = fault::kAppend | fault::kSync | fault::kFlush |
                 fault::kWriteFile | fault::kOpenWrite;
      rule.path_substr = "g1-";
      rule.kind = fault::FaultKind::kEIO;
      rule.times = -1;
      fault::FaultInjector::Instance()->AddRule(rule);
      auto batch = AddShortcut(&graph, 5, 13, "0.25");
      acked = batch.size();
      EXPECT_TRUE((*router)->AppendBatch(batch).ok());
      fault::FaultInjector::Instance()->Reset();
    }
    return false;
  };
  ReshardCoordinator coordinator(router->get(), opts);
  auto stats = coordinator.Run();
  ASSERT_FALSE(stats.ok()) << "a lost mirror must abort the move";
  ASSERT_GT(acked, 0u);

  // No marker, no poison, old map — and the acked batch still serves.
  EXPECT_FALSE(FileExists(JoinPath(root_, "sp.RESHARD")));
  EXPECT_FALSE((*router)->poisoned());
  EXPECT_EQ((*router)->generation(), 0u);
  EXPECT_EQ((*router)->num_shards(), 2);
  ASSERT_TRUE((*router)->DrainAll().ok());
  std::map<std::string, std::string> before;
  for (const auto& kv : graph) {
    auto v = (*router)->Lookup(kv.key);
    ASSERT_TRUE(v.ok()) << kv.key;
    before[kv.key] = *v;
  }

  // A clean retry completes the move with the acked history intact.
  ReshardOptions clean;
  clean.new_num_shards = 3;
  clean.chunk_max_bytes = 512;
  ReshardCoordinator retry(router->get(), clean);
  auto retried = retry.Run();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ((*router)->generation(), 1u);
  EXPECT_EQ((*router)->num_shards(), 3);
  for (const auto& [key, value] : before) {
    auto v = (*router)->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
}

// Appends acked through a ReplicaSet go through the router, so one acked
// after the fence is dual-journaled into the new generation like any
// routed append (the set used to write to the donor pipelines directly,
// and such a delta vanished at the cutover).
TEST_F(ReshardingTest, ReplicaSetAppendAfterTheFenceReachesTheNewGeneration) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  const std::string source = PaddedNum(0);
  auto spec = sssp::MakeIterSpec("sp", source, 2, 200);
  auto router = ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
  std::string replicas = root_ + "_replicas";
  ASSERT_TRUE(ResetDir(replicas).ok());
  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  ReshardOptions opts;
  opts.new_num_shards = 3;
  opts.chunk_max_bytes = 512;
  opts.crash_hook = [&](const std::string& stage) {
    if (stage == "dual_journal") {
      EXPECT_TRUE((*set)->AppendBatch(AddShortcut(&graph, 5, 13, "0.25")).ok());
    }
    return false;
  };
  ReshardCoordinator coordinator(router->get(), opts);
  auto stats = coordinator.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->dual_journal_deltas, 2u);
  ASSERT_TRUE((*set)->Rebind().ok());
  ASSERT_TRUE((*set)->DrainAll().ok());

  // 0 -> 5 along the ring, then the 0.25 shortcut to 13.
  auto v = (*router)->Lookup(PaddedNum(13));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto dist = ParseDouble(*v);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ(*dist, 5.25);
  EXPECT_EQ(sssp::ErrorRate(ShardedSnapshot(**router),
                            sssp::Reference(graph, source)),
            0.0);
}

// An I/O failure on the PARTMAP publish AFTER the RESHARD marker is
// durable must not leave the marker behind: the live fleet keeps serving
// and acking the old generation, and a surviving marker would roll those
// acks forward into oblivion on reopen. The coordinator revokes the
// decision instead, so the old map stands consistently.
TEST_F(ReshardingTest, PartmapPublishFailureRevokesTheMarkerAndKeepsOldMap) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router = ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
  ASSERT_TRUE((*router)->AppendBatch(AddShortcut(&graph, 3, 15, "0.5")).ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  std::map<std::string, std::string> before;
  for (const auto& kv : graph) {
    auto v = (*router)->Lookup(kv.key);
    ASSERT_TRUE(v.ok());
    before[kv.key] = *v;
  }

  // The PARTMAP record is rewritten only at the publish (the staging
  // fleet never persists it), so one EIO on its path hits exactly the
  // write after the marker.
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile;
  rule.path_substr = "sp.PARTMAP";
  rule.kind = fault::FaultKind::kEIO;
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);

  ReshardOptions opts;
  opts.new_num_shards = 3;
  opts.chunk_max_bytes = 512;
  ReshardCoordinator coordinator(router->get(), opts);
  auto stats = coordinator.Run();
  ASSERT_FALSE(stats.ok()) << "the failed publish must surface";
  fault::FaultInjector::Instance()->Reset();

  // The decision was revoked: no marker, no poison, old map serving every
  // committed value, and appends ack safely (nothing can roll them over).
  EXPECT_FALSE(FileExists(JoinPath(root_, "sp.RESHARD")));
  EXPECT_FALSE((*router)->poisoned());
  EXPECT_EQ((*router)->generation(), 0u);
  EXPECT_EQ((*router)->num_shards(), 2);
  EXPECT_EQ((*router)->partition_map(), (PartitionMap{0, 2}));
  for (const auto& [key, value] : before) {
    auto v = (*router)->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
  ASSERT_TRUE((*router)->AppendBatch(AddShortcut(&graph, 7, 19, "0.5")).ok());
  ASSERT_TRUE((*router)->DrainAll().ok());

  // With the disk healed, a retry completes the interrupted move.
  ReshardCoordinator retry(router->get(), opts);
  auto retried = retry.Run();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ((*router)->generation(), 1u);
  EXPECT_EQ((*router)->num_shards(), 3);
  ASSERT_TRUE((*router)->DrainAll().ok());
  for (const auto& kv : graph) {
    ASSERT_TRUE((*router)->Lookup(kv.key).ok()) << kv.key;
  }
}

// ---------------------------------------------------------------------------
// Live readers across the cutover
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, PinnedPreFlipReaderServesOldGenerationWithZeroFailures) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router =
      ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
  ShardGroup group(router->get());

  // Pin BEFORE the move and record the full pinned view.
  auto pinned = group.PinSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->epochs().size(), 2u);
  std::map<std::string, std::string> pinned_values;
  for (const auto& kv : graph) {
    auto v = pinned->Get(kv.key);
    ASSERT_TRUE(v.ok());
    pinned_values[kv.key] = *v;
  }

  // Readers hammer the pre-flip pin, fresh pins and routed gets across the
  // whole move. Zero failed reads allowed.
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0}, done{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t i = 0;
      while (!stop.load()) {
        const auto& kv = graph[i++ % graph.size()];
        if (!pinned->Get(kv.key).ok()) failed.fetch_add(1);
        if (!group.Get("", kv.key).ok()) failed.fetch_add(1);
        auto snap = group.PinSnapshot();
        if (!snap.ok() || !snap->Get(kv.key).ok()) failed.fetch_add(1);
        done.fetch_add(1);
      }
    });
  }

  ReshardOptions opts;
  opts.new_num_shards = 4;
  opts.crash_hook = [&](const std::string& stage) {
    if (stage == "transfer") {
      EXPECT_TRUE(
          (*router)->AppendBatch(AddShortcut(&graph, 5, 17, "0.5")).ok());
    }
    return false;
  };
  ReshardCoordinator coordinator(router->get(), opts);
  auto stats = coordinator.Run();
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(done.load(), 0);
  EXPECT_EQ(failed.load(), 0)
      << failed.load() << " failed reads across the cutover";

  // The pre-flip pin still serves the OLD generation bit for bit: its two
  // donor slices were retired alive, not destroyed.
  EXPECT_EQ(pinned->epochs().size(), 2u);
  for (const auto& [key, value] : pinned_values) {
    auto v = pinned->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
  // A fresh pin is one uniform cut of the NEW generation.
  auto fresh = group.PinSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epochs().size(), 4u);
  for (const auto& kv : graph) ASSERT_TRUE(fresh->Get(kv.key).ok());
}

// ---------------------------------------------------------------------------
// Warm retry: content-addressed chunks survive a crashed attempt
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, WarmRetryReusesEveryChunkOfACrashedTransfer) {
  const int n = 32;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  auto router =
      ShardRouter::Open(root_, "sp", CoordinatedOptions(spec, 2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());

  ReshardOptions opts;
  opts.new_num_shards = 4;
  opts.chunk_max_bytes = 256;  // plenty of chunks
  opts.crash_hook = [](const std::string& stage) {
    return stage == "transfer";  // die AFTER the chunks are durable
  };
  ReshardCoordinator crashed(router->get(), opts);
  ASSERT_FALSE(crashed.Run().ok());
  EXPECT_EQ((*router)->generation(), 0u);

  // Retry with nothing changed in between: the donors' slices cut into
  // byte-identical chunks, so the store already holds every one of them.
  opts.crash_hook = nullptr;
  ReshardCoordinator retry(router->get(), opts);
  auto stats = retry.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GT(stats->chunks_total, 1u);
  EXPECT_EQ(stats->chunks_reused, stats->chunks_total)
      << "a warm retry must not re-copy identical donor slices";
  EXPECT_EQ(stats->bytes_moved, 0u);
  EXPECT_EQ((*router)->num_shards(), 4);
  for (const auto& kv : graph) {
    EXPECT_TRUE((*router)->Lookup(kv.key).ok()) << kv.key;
  }
}

// The flip_marker crash point fails the live router: every refused write,
// read and pin returns exactly its "serving.<name>" health reason, and the
// roll-forward reopen starts healthy in the same registry.
TEST_F(ReshardingTest, FlipMarkerCrashFailsServingAndEveryRefusalMatchesIt) {
  auto graph = RingGraph(24, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  auto options = CoordinatedOptions(spec, 2);
  options.metrics = &metrics;
  options.health = &health;
  {
    auto router = ShardRouter::Open(root_, "sp", options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE(
        (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=crash,path=reshard/flip_marker,kind=crash")
                    .ok());
    ReshardOptions opts;
    opts.new_num_shards = 3;
    opts.chunk_max_bytes = 512;
    ReshardCoordinator coordinator(router->get(), opts);
    ASSERT_FALSE(coordinator.Run().ok());
    fault::FaultInjector::Instance()->Reset();

    EXPECT_EQ(health.state("serving.sp"), HealthState::kFailed);
    const std::string reason = health.reason("serving.sp");
    EXPECT_NE(reason.find("reshard marker"), std::string::npos) << reason;
    auto append = (*router)->Append(
        DeltaKV{DeltaOp::kInsert, graph.front().key, graph.front().value});
    EXPECT_EQ(append.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_EQ(append.status().message(), reason);
    auto lookup = (*router)->Lookup(graph.front().key);
    EXPECT_EQ(lookup.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_EQ(lookup.status().message(), reason);
    ShardGroup group(router->get());
    auto pin = group.PinSnapshot();
    EXPECT_EQ(pin.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_EQ(pin.status().message(), reason);
  }

  options.reset = false;
  auto reopened = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->generation(), 1u);
  EXPECT_EQ(health.state("serving.sp"), HealthState::kHealthy);
  EXPECT_TRUE((*reopened)->Lookup(graph.front().key).ok());
}

// ---------------------------------------------------------------------------
// Observability: reshard metrics + health states
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, ReshardMetricsAndHealthStatesSurface) {
  const int n = 24;
  auto graph = RingGraph(n, /*weighted=*/true);
  auto spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  auto options = CoordinatedOptions(spec, 2);
  options.metrics = &metrics;
  options.health = &health;
  auto router = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(spec, graph)).ok());

  // Mid-move, every donor and destination is visibly "resharding".
  std::atomic<int> degraded_seen{0};
  ReshardOptions opts;
  opts.new_num_shards = 3;
  opts.chunk_max_bytes = 512;
  opts.crash_hook = [&](const std::string& stage) {
    if (stage == "transfer") {
      for (const std::string c :
           {"reshard.sp.donor0", "reshard.sp.donor1", "reshard.sp.dest0",
            "reshard.sp.dest1", "reshard.sp.dest2"}) {
        if (health.state(c) == HealthState::kDegraded &&
            health.reason(c) == "resharding") {
          degraded_seen.fetch_add(1);
        }
      }
      EXPECT_TRUE(
          (*router)->AppendBatch(AddShortcut(&graph, 5, 17, "0.5")).ok());
    }
    return false;
  };
  ReshardCoordinator coordinator(router->get(), opts);
  auto stats = coordinator.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(degraded_seen.load(), 5);

  // Cleared after the move: no reshard component lingers.
  for (const auto& c : health.Snapshot()) {
    EXPECT_TRUE(c.component.rfind("reshard.", 0) != 0)
        << c.component << " still reported after the move";
  }

  // The counters mirror the returned stats exactly.
  EXPECT_EQ(metrics.Get("serving.sp.reshard.chunks_total")->value(),
            static_cast<int64_t>(stats->chunks_total));
  EXPECT_EQ(metrics.Get("serving.sp.reshard.chunks_reused")->value(),
            static_cast<int64_t>(stats->chunks_reused));
  EXPECT_EQ(metrics.Get("serving.sp.reshard.bytes_moved")->value(),
            static_cast<int64_t>(stats->bytes_moved));
  EXPECT_EQ(metrics.Get("serving.sp.reshard.dual_journal_deltas")->value(),
            static_cast<int64_t>(stats->dual_journal_deltas));
  EXPECT_GT(stats->dual_journal_deltas, 0u);
  EXPECT_EQ(metrics.GetGauge("serving.sp.reshard.cutover_ms")->value(),
            static_cast<int64_t>(stats->cutover_ms));

  // The new generation publishes its own per-shard counter family.
  int64_t g1_epochs = 0;
  for (int s = 0; s < 3; ++s) {
    g1_epochs += metrics
                     .Get("serving.sp.g1.shard" + std::to_string(s) +
                          ".epochs_committed")
                     ->value();
  }
  EXPECT_GT(g1_epochs, 0);
}

// ---------------------------------------------------------------------------
// Replication interop: generation bump detection, re-sync, promote
// ---------------------------------------------------------------------------

TEST_F(ReshardingTest, ReplicationDetectsGenerationBumpResyncsAndPromotes) {
  GraphGenOptions gen;
  gen.num_vertices = 100;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  std::vector<KV> state;
  for (const auto& kv : graph) state.push_back(KV{kv.key, "1"});

  ShardRouterOptions options;
  options.num_shards = 2;
  options.workers_per_shard = 2;
  options.pipeline.spec = pagerank::MakeIterSpec("pr", 2, 100, 1e-9);
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.engine.mrbg_auto_off_ratio = 2;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, state).ok());

  std::string replicas = root_ + "_replicas";
  ASSERT_TRUE(ResetDir(replicas).ok());
  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());
  EXPECT_EQ((*set)->bound_generation(), 0u);

  ReshardOptions opts;
  opts.new_num_shards = 3;
  ReshardCoordinator coordinator(router->get(), opts);
  ASSERT_TRUE(coordinator.Run().ok());

  // The set is bound to a generation that no longer exists: every routed
  // operation is refused with a rebind hint instead of misrouting.
  auto stale = (*set)->Get(graph.front().key);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(stale.status().ToString().find("Rebind"), std::string::npos);
  EXPECT_FALSE(
      (*set)
          ->Append(DeltaKV{DeltaOp::kInsert, graph.front().key, "0000000001"})
          .ok());
  EXPECT_FALSE((*set)->PinSnapshot().ok());

  // Rebind + re-sync: three new shards, three fresh follower fleets, all
  // stamped with the new generation.
  ASSERT_TRUE((*set)->Rebind().ok());
  EXPECT_EQ((*set)->bound_generation(), 1u);
  ASSERT_TRUE((*set)->SyncAll().ok());
  for (int s = 0; s < 3; ++s) {
    FollowerReplica* f = (*set)->replica(s, 0);
    EXPECT_EQ(f->pipeline()->generation(), 1u) << "shard " << s;
    EXPECT_EQ(f->pipeline()->committed_epoch(),
              (*router)->shard(s)->committed_epoch())
        << "shard " << s;
  }
  for (const auto& kv : graph) {
    auto replica_read = (*set)->Get(kv.key);
    ASSERT_TRUE(replica_read.ok()) << kv.key;
    auto primary_read = (*router)->Lookup(kv.key);
    ASSERT_TRUE(primary_read.ok()) << kv.key;
    EXPECT_EQ(*replica_read, *primary_read) << kv.key;
  }

  // Kill-primary-after-reshard: the promoted follower serves exactly the
  // dead primary's committed state on the NEW partitioning.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.08;
  dopt.seed = 7;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*router)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  const PartitionMap map = (*router)->partition_map();
  const uint64_t pre_crash_epoch = (*router)->shard(0)->committed_epoch();
  std::map<std::string, std::string> pre_crash;
  for (const auto& kv : graph) {
    if (map.ShardOf(kv.key) != 0) continue;
    auto v = (*router)->Lookup(kv.key);
    ASSERT_TRUE(v.ok());
    pre_crash[kv.key] = *v;
  }
  ASSERT_FALSE(pre_crash.empty());

  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*set)->primary(0)->committed_epoch(), pre_crash_epoch);
  for (const auto& [key, value] : pre_crash) {
    auto v = (*set)->primary(0)->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
  // And the shard ingests again through the promoted primary.
  ASSERT_TRUE(
      (*set)
          ->Append(DeltaKV{DeltaOp::kInsert, pre_crash.begin()->first,
                           "0000000001 0000000002"})
          .ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
}

}  // namespace
}  // namespace i2mr
