// Tests for the incremental iterative engine (§5 + §6): refresh equivalence
// with full re-computation, change propagation control, P∆ auto turn-off,
// checkpointing and fault recovery, and the resident structure's equivalence
// with the structure files a fresh engine reloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/gimv.h"
#include "apps/kmeans.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "common/hash.h"
#include "core/incr_iter_engine.h"
#include "data/graph_gen.h"
#include "data/matrix_gen.h"
#include "data/points_gen.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "mr/cluster.h"

namespace i2mr {
namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

class CoreIncrIterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_incr_iter";
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }
  std::string root_;
};

TEST_F(CoreIncrIterTest, PageRankRefreshMatchesRecompute) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 250;
  gen.avg_degree = 5;
  auto graph = GenGraph(gen);

  IncrIterOptions options;
  options.filter_threshold = 0.0;   // exact propagation
  options.mrbg_auto_off_ratio = 2;  // keep the incremental path under test
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_incr", 4, 80, 1e-8), options);
  auto init = engine.RunInitial(graph, UnitState(graph));
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  EXPECT_GT(init->preserve_ms, 0.0);

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  EXPECT_FALSE(refresh->mrbg_turned_off);
  EXPECT_GT(refresh->iterations.size(), 1u);

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, RefreshTouchesFarFewerMapInstancesThanFullRun) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 400;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = 1e-3;
  options.mrbg_auto_off_ratio = 2;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_cheap", 4, 60, 1e-6), options);
  auto init = engine.RunInitial(graph, UnitState(graph));
  ASSERT_TRUE(init.ok());
  int64_t full_map_total = 0;
  for (const auto& it : init->iterations) full_map_total += it.map_instances;

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.02;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  // First refresh iteration touches only the delta records.
  EXPECT_EQ(refresh->iterations[0].map_instances,
            static_cast<int64_t>(delta.size()));
  int64_t total_incr_map = 0;
  for (const auto& it : refresh->iterations) total_incr_map += it.map_instances;
  // The whole refresh maps far fewer instances than the full run did.
  EXPECT_LT(total_incr_map, full_map_total / 4);
}

TEST_F(CoreIncrIterTest, CpcDisabledPropagatesEverythingAndStillConverges) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  auto graph = GenGraph(gen);

  IncrIterOptions no_cpc;
  no_cpc.filter_threshold = -1.0;  // w/o CPC
  no_cpc.mrbg_auto_off_ratio = 2.0;  // never auto-off (to observe propagation)
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_nocpc", 3, 60, 1e-6), no_cpc);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 7;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  ASSERT_GT(refresh->iterations.size(), 2u);
  // Without CPC, propagation expands to (nearly) the whole graph.
  int64_t late = refresh->iterations[refresh->iterations.size() - 1].propagated_pairs;
  EXPECT_GT(late, static_cast<int64_t>(gen.num_vertices) / 2);

  auto reference = pagerank::Reference(graph, 60, 1e-6);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, CpcFiltersPropagationAndBoundsError) {
  GraphGenOptions gen;
  gen.num_vertices = 200;
  gen.avg_degree = 5;

  auto run_with_threshold = [&](double ft, const std::string& tag,
                                int64_t* total_propagated, double* error) {
    LocalCluster cluster(root_ + "_" + tag, 3);
    auto graph = GenGraph(gen);
    IncrIterOptions options;
    options.filter_threshold = ft;
    IncrementalIterativeEngine engine(
        &cluster, pagerank::MakeIterSpec("pr_ft", 3, 60, 1e-6), options);
    EXPECT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 11;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    EXPECT_TRUE(refresh.ok());
    *total_propagated = 0;
    for (const auto& it : refresh->iterations) {
      *total_propagated += it.propagated_pairs;
    }
    auto reference = pagerank::Reference(graph, 60, 1e-6);
    auto state = engine.StateSnapshot();
    EXPECT_TRUE(state.ok());
    *error = pagerank::MeanError(*state, reference);
  };

  int64_t prop_small, prop_large;
  double err_small, err_large;
  run_with_threshold(1e-4, "small", &prop_small, &err_small);
  run_with_threshold(0.05, "large", &prop_large, &err_large);

  // Larger threshold filters more kv-pairs...
  EXPECT_LT(prop_large, prop_small);
  // ... at some accuracy cost, but bounded (paper: mean errors < 0.2%).
  EXPECT_LT(err_small, 1e-3);
  EXPECT_LT(err_large, 0.05);
  EXPECT_LE(err_small, err_large + 1e-12);
}

TEST_F(CoreIncrIterTest, SsspRefreshExactWithFilterZero) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  gen.weighted = true;
  auto graph = GenGraph(gen);
  std::string source = PaddedNum(0);

  auto spec = sssp::MakeIterSpec("sssp_incr", source, 3);
  std::vector<KV> init_state;
  for (const auto& kv : graph) {
    init_state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  IncrementalIterativeEngine engine(&cluster, spec, options);
  ASSERT_TRUE(engine.RunInitial(graph, init_state).ok());

  // Delta: add shortcut edges from the source (distance decreases only, so
  // incremental relaxation from the converged state is exact).
  std::vector<DeltaKV> delta;
  auto old_src = graph[0];
  auto edges = ParseWeightedAdjacency(old_src.value);
  edges.emplace_back(PaddedNum(77), 0.05);
  edges.emplace_back(PaddedNum(123), 0.01);
  std::string new_sv = JoinWeightedAdjacency(edges);
  delta.push_back(DeltaKV{DeltaOp::kDelete, old_src.key, old_src.value});
  delta.push_back(DeltaKV{DeltaOp::kInsert, old_src.key, new_sv});
  graph[0].value = new_sv;

  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = sssp::Reference(graph, source);
  EXPECT_EQ(sssp::ErrorRate(*state, reference, 1e-9), 0.0);
}

TEST_F(CoreIncrIterTest, GimvRefreshMatchesRecompute) {
  LocalCluster cluster(root_, 3);
  MatrixGenOptions gen;
  gen.num_blocks = 4;
  gen.block_size = 8;
  gen.density = 0.15;
  auto blocks = GenBlockMatrix(gen);
  auto vec = GenVectorBlocks(gen, 1.0);

  IncrIterOptions options;
  options.filter_threshold = 0.0;
  IncrementalIterativeEngine engine(
      &cluster, gimv::MakeIterSpec("gimv_incr", 3, gen.block_size, 0.15, 60, 1e-10),
      options);
  ASSERT_TRUE(engine.RunInitial(blocks, vec).ok());

  auto delta = GenMatrixDelta(gen, 0.15, 9, &blocks);
  ASSERT_FALSE(delta.empty());
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = gimv::Reference(blocks, vec, gen.block_size, 0.15, 60, 1e-10);
  EXPECT_LT(gimv::MaxDelta(*state, reference), 1e-5);
}

TEST_F(CoreIncrIterTest, KmeansWithMrbgOffRecomputesFromConvergedState) {
  LocalCluster cluster(root_, 3);
  PointsGenOptions gen;
  gen.num_points = 200;
  gen.dims = 2;
  gen.num_clusters = 3;
  auto points = GenPoints(gen);
  auto init = kmeans::InitialState(points, 3);

  IncrIterOptions options;
  options.maintain_mrbg = false;  // §5.2: wasteful for Kmeans
  IncrementalIterativeEngine engine(
      &cluster, kmeans::MakeIterSpec("km_incr", 3, 30, 1e-7), options);
  auto initrun = engine.RunInitial(points, init);
  ASSERT_TRUE(initrun.ok());
  auto converged = engine.StateSnapshot();
  ASSERT_TRUE(converged.ok());
  auto prev_centroids = kmeans::DecodeCentroids((*converged)[0].value);

  auto delta = GenPointsDelta(gen, 0.1, 0.05, 10, &points);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  EXPECT_TRUE(refresh->mrbg_turned_off);

  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto got = kmeans::DecodeCentroids((*state)[0].value);
  // Reference: Lloyd on the updated points FROM the previously converged
  // centroids (§5.1 "use the converged state data Di-1 from job Ai-1").
  auto want = kmeans::Reference(points, prev_centroids, 30, 1e-7);
  EXPECT_LT(kmeans::MaxCentroidDelta(got, want), 1e-5);
}

TEST_F(CoreIncrIterTest, PDeltaAutoTurnOffTriggersOnGlobalChange) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 100;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = -1;      // no CPC -> everything propagates
  options.mrbg_auto_off_ratio = 0.5;  // paper default
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_autooff", 3, 60, 1e-6), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  // Change most of the graph: P∆ rises above 50% within a few iterations.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.9;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = engine.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok());
  EXPECT_TRUE(refresh->mrbg_turned_off);
  EXPECT_GT(refresh->max_p_delta, 0.5);

  // Falls back to full iterative re-computation: result still correct.
  auto reference = pagerank::Reference(graph, 60, 1e-6);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, FaultRecoveryProducesSameResults) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  auto run = [&](bool inject, const std::string& tag,
                 std::vector<RecoveryEvent>* recoveries) {
    LocalCluster cluster(root_ + "_" + tag, 3);
    auto graph = GenGraph(gen);
    IncrIterOptions options;
    options.filter_threshold = 0.0;
    options.mrbg_auto_off_ratio = 2;
    options.checkpoint_each_iteration = true;
    if (inject) {
      options.fail_hook = [](int iteration, TaskId::Kind kind, int partition) {
        // Fail map task 1 in iteration 2 and reduce task 0 in iteration 3.
        return (iteration == 2 && kind == TaskId::Kind::kMap && partition == 1) ||
               (iteration == 3 && kind == TaskId::Kind::kReduce && partition == 0);
      };
    }
    IncrementalIterativeEngine engine(
        &cluster, pagerank::MakeIterSpec("pr_ft", 3, 60, 1e-8), options);
    EXPECT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.seed = 5;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    EXPECT_TRUE(refresh.ok()) << refresh.status().ToString();
    if (recoveries != nullptr) *recoveries = refresh->recoveries;
    auto state = engine.StateSnapshot();
    EXPECT_TRUE(state.ok());
    return *state;
  };

  std::vector<RecoveryEvent> recoveries;
  auto clean = run(false, "clean", nullptr);
  auto faulty = run(true, "faulty", &recoveries);
  EXPECT_EQ(clean, faulty);  // bit-identical recovery
  ASSERT_EQ(recoveries.size(), 2u);
  EXPECT_EQ(recoveries[0].iteration, 2);
  EXPECT_EQ(recoveries[1].iteration, 3);
  for (const auto& ev : recoveries) {
    EXPECT_GE(ev.recovery_ms, 0.0);
    EXPECT_LT(ev.recovery_ms, 5000.0);
  }
}

TEST_F(CoreIncrIterTest, EmptyDeltaRefreshConvergesImmediately) {
  LocalCluster cluster(root_, 2);
  GraphGenOptions gen;
  gen.num_vertices = 60;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_empty", 2, 40, 1e-8), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
  auto before = engine.StateSnapshot();
  ASSERT_TRUE(before.ok());

  auto refresh = engine.RunIncremental({});
  ASSERT_TRUE(refresh.ok());
  EXPECT_EQ(refresh->iterations.size(), 1u);
  EXPECT_EQ(refresh->iterations[0].map_instances, 0);
  auto after = engine.StateSnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(CoreIncrIterTest, RefreshAcrossEngineRestarts) {
  // The paper's deployment scenario: jobs A1, A2, A3 run as separate
  // processes (days apart), each picking up the preserved state and
  // MRBGraph of the previous one from disk.
  GraphGenOptions gen;
  gen.num_vertices = 120;
  auto graph = GenGraph(gen);
  std::string root = root_ + "_restart";
  // Separate cluster objects must not wipe each other's state: reuse one
  // root via distinct engine instances (a LocalCluster resets its root on
  // construction, so keep a single cluster alive as the "machine").
  LocalCluster cluster(root, 3);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  {
    IncrementalIterativeEngine a1(
        &cluster, pagerank::MakeIterSpec("pr_restart", 3, 80, 1e-8), options);
    ASSERT_TRUE(a1.RunInitial(graph, UnitState(graph)).ok());
  }  // engine object destroyed; state + MRBGraph live on disk
  for (int job = 2; job <= 3; ++job) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.seed = 40 + job;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    IncrementalIterativeEngine ai(
        &cluster, pagerank::MakeIterSpec("pr_restart", 3, 80, 1e-8), options);
    // A fresh engine has no in-memory state: it must load everything from
    // the partition directories (LoadExisting inside RunIncremental).
    auto refresh = ai.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << "job A" << job << ": "
                              << refresh.status().ToString();
    EXPECT_FALSE(refresh->mrbg_turned_off);
    auto state = ai.StateSnapshot();
    ASSERT_TRUE(state.ok());
    auto reference = pagerank::Reference(graph, 80, 1e-8);
    EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4) << "job A" << job;
  }
}

TEST_F(CoreIncrIterTest, DeletionsStayDeletedAcrossRestart) {
  // Structure deletions empty their MRBG chunks, which the log-structured
  // store records as tombstone frames. A fresh engine's LoadExisting
  // rebuilds each store's index by scanning the segment log — the
  // tombstoned chunks must come back deleted, not resurrect as the
  // pre-delete versions (which are still physically present in older
  // segments until compaction drops them).
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  std::string root = root_ + "_tombstone";
  LocalCluster cluster(root, 3);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  {
    IncrementalIterativeEngine a1(
        &cluster, pagerank::MakeIterSpec("pr_tomb", 3, 80, 1e-8), options);
    ASSERT_TRUE(a1.RunInitial(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.0;
    dopt.delete_fraction = 0.15;  // deletions only: every touched chunk
    dopt.seed = 77;               // shrinks or disappears
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = a1.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
    EXPECT_FALSE(refresh->mrbg_turned_off);
  }  // engine destroyed; tombstones live only in the segment log
  IncrementalIterativeEngine a2(
      &cluster, pagerank::MakeIterSpec("pr_tomb", 3, 80, 1e-8), options);
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  dopt.seed = 78;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  auto refresh = a2.RunIncremental(delta);
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  auto state = a2.StateSnapshot();
  ASSERT_TRUE(state.ok());
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, SecondRefreshContinuesFromFirst) {
  LocalCluster cluster(root_, 3);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_multi", 3, 80, 1e-8), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());

  for (int round = 0; round < 2; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.insert_fraction = 0.02;
    dopt.seed = 20 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    auto refresh = engine.RunIncremental(delta);
    ASSERT_TRUE(refresh.ok()) << "round " << round;
  }
  auto reference = pagerank::Reference(graph, 80, 1e-8);
  auto state = engine.StateSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_LT(pagerank::MeanError(*state, reference), 1e-4);
}

TEST_F(CoreIncrIterTest, JobDirsExistOnlyWhileSomethingSpills) {
  // A job dir is created by the first map-side spill. The in-memory
  // shuffle spills nothing, so a refresh must not create one (an injected
  // mkdir failure under jobs/ would fail it); a forced disk shuffle creates
  // and removes them. Either way none is left behind.
  LocalCluster cluster(root_ + "_jobs", 3);
  GraphGenOptions gen;
  gen.num_vertices = 120;
  auto graph = GenGraph(gen);
  IncrIterOptions options;
  options.mrbg_auto_off_ratio = 2;
  IncrementalIterativeEngine engine(
      &cluster, pagerank::MakeIterSpec("pr_jobs", 3, 40, 1e-6), options);
  ASSERT_TRUE(engine.RunInitial(graph, UnitState(graph)).ok());
  const std::string jobs = JoinPath(cluster.root(), "jobs");
  if (EffectiveShuffleMode(ShuffleMode::kInMemory) == ShuffleMode::kInMemory) {
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=mkdir,path=" + jobs + "/,kind=eio,times=-1")
                    .ok());
  }
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  auto refresh = engine.RunIncremental(GenGraphDelta(gen, dopt, &graph));
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  EXPECT_GT(refresh->iterations.size(), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(jobs));
}

// -- Resident structure vs. reloaded structure -------------------------------

// The resident structure, flattened; checks each group's invariants (DK =
// project(SK), partition = the structure partition, records sorted).
std::multiset<KV> ResidentRecords(const IterativeEngine& engine) {
  const auto& spec = engine.spec();
  const bool all_to_one = spec.projector->dep_type() == DepType::kAllToOne;
  std::multiset<KV> out;
  for (int p = 0; p < spec.num_partitions; ++p) {
    for (const auto& [dk, recs] : engine.structure(p)) {
      EXPECT_FALSE(recs.empty()) << "empty group " << dk;
      EXPECT_TRUE(std::is_sorted(recs.begin(), recs.end())) << dk;
      for (const auto& kv : recs) {
        EXPECT_EQ(spec.projector->Project(kv.key), dk);
        EXPECT_EQ(Hash64(all_to_one ? kv.key : dk) % spec.num_partitions,
                  static_cast<uint64_t>(p));
        out.insert(kv);
      }
    }
  }
  return out;
}

// The edge cases every batch carries: a delete-then-reinsert of a live
// record, a duplicate of a live record, an insert deleted again in the same
// batch, and a delete of a record that does not exist.
void AppendEdgeCases(const std::vector<KV>& live, const KV& transient,
                     int round, std::vector<DeltaKV>* batch) {
  const KV& reinserted = live[(7 * round + 1) % live.size()];
  const KV& duplicated = live[(7 * round + 3) % live.size()];
  const KV& missing = live[(7 * round + 5) % live.size()];
  batch->push_back({DeltaOp::kDelete, reinserted.key, reinserted.value});
  batch->push_back({DeltaOp::kInsert, reinserted.key, reinserted.value});
  batch->push_back({DeltaOp::kInsert, duplicated.key, duplicated.value});
  batch->push_back({DeltaOp::kInsert, transient.key, transient.value});
  batch->push_back({DeltaOp::kDelete, transient.key, transient.value});
  batch->push_back({DeltaOp::kDelete, missing.key, "no such record"});
}

// Drive one engine through `batches`. After each refresh its resident
// structure must equal the batches applied one by one in log order, and a
// fresh engine that LoadExisting()s a copy of its files must hold the same
// structure and produce byte-identical state on the next refresh.
void ExpectResidentMatchesReloaded(
    const std::string& root, const IterJobSpec& spec, IncrIterOptions options,
    const std::vector<KV>& structure, const std::vector<KV>& initial_state,
    const std::vector<std::vector<DeltaKV>>& batches) {
  // Copies of the live files must not race a compaction pass.
  options.store_options.background_compaction = false;
  LocalCluster cluster(root + "_live", spec.num_partitions);
  IncrementalIterativeEngine live(&cluster, spec, options);
  ASSERT_TRUE(live.RunInitial(structure, initial_state).ok());
  std::multiset<KV> model(structure.begin(), structure.end());

  for (size_t b = 0; b <= batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::unique_ptr<LocalCluster> fresh_cluster;
    std::unique_ptr<IncrementalIterativeEngine> fresh;
    if (b > 0) {
      // Reload what the live engine's previous refresh left on disk.
      fresh_cluster =
          std::make_unique<LocalCluster>(root + "_fresh", spec.num_partitions);
      std::filesystem::copy(JoinPath(cluster.root(), "state"),
                            JoinPath(fresh_cluster->root(), "state"),
                            std::filesystem::copy_options::recursive);
      fresh = std::make_unique<IncrementalIterativeEngine>(fresh_cluster.get(),
                                                           spec, options);
      ASSERT_TRUE(fresh->LoadExisting().ok());
      for (int p = 0; p < spec.num_partitions; ++p) {
        EXPECT_TRUE(fresh->structure(p) == live.structure(p)) << "part " << p;
      }
    }
    if (b == batches.size()) break;

    auto refreshed = live.RunIncremental(batches[b]);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    for (const auto& d : batches[b]) {
      KV kv{d.key, d.value};
      if (d.op == DeltaOp::kInsert) {
        model.insert(kv);
      } else if (auto it = model.find(kv); it != model.end()) {
        model.erase(it);
      }
    }
    EXPECT_TRUE(ResidentRecords(live) == model);
    if (fresh == nullptr) continue;
    ASSERT_TRUE(fresh->RunIncremental(batches[b]).ok());
    EXPECT_TRUE(ResidentRecords(*fresh) == model);
    auto live_state = live.StateSnapshot();
    auto fresh_state = fresh->StateSnapshot();
    ASSERT_TRUE(live_state.ok() && fresh_state.ok());
    EXPECT_TRUE(*live_state == *fresh_state) << "state diverged";
  }
}

TEST_F(CoreIncrIterTest, PageRankResidentStructureMatchesReloadedFiles) {
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  const auto graph0 = GenGraph(gen);
  auto graph = graph0;
  std::vector<std::vector<DeltaKV>> batches;
  for (int round = 0; round < 4; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.06;
    dopt.insert_fraction = 0.02;
    dopt.delete_fraction = 0.02;
    dopt.seed = 500 + round;
    batches.push_back(GenGraphDelta(gen, dopt, &graph));
    KV transient{PaddedNum(900 + round), graph[0].key};
    AppendEdgeCases(graph, transient, round, &batches.back());
  }
  IncrIterOptions options;
  options.filter_threshold = 0.0;
  options.mrbg_auto_off_ratio = 2;  // keep the incremental path under test
  ExpectResidentMatchesReloaded(
      root_ + "_resident_pr", pagerank::MakeIterSpec("pr_res", 3, 80, 1e-8),
      options, graph0, UnitState(graph0), batches);
}

TEST_F(CoreIncrIterTest, KmeansResidentStructureMatchesReloadedFiles) {
  // All-to-one: structure partitioned by hash(SK), one DK group per
  // partition, and every refresh a full re-computation over it.
  PointsGenOptions gen;
  gen.num_points = 150;
  gen.dims = 2;
  gen.num_clusters = 3;
  const auto points0 = GenPoints(gen);
  auto points = points0;
  std::vector<std::vector<DeltaKV>> batches;
  for (int round = 0; round < 3; ++round) {
    batches.push_back(GenPointsDelta(gen, 0.08, 0.03, 600 + round, &points));
    KV transient{"transient-" + std::to_string(round), points[0].value};
    AppendEdgeCases(points, transient, round, &batches.back());
  }
  IncrIterOptions options;
  options.maintain_mrbg = false;
  ExpectResidentMatchesReloaded(
      root_ + "_resident_km", kmeans::MakeIterSpec("km_res", 3, 30, 1e-7),
      options, points0, kmeans::InitialState(points0, 3), batches);
}

}  // namespace
}  // namespace i2mr
