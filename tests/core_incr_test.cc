// Tests for the one-step fine-grain incremental engine (§3): the running
// example of the paper (sum of in-edge weights per vertex, Fig. 3),
// property tests checking incremental == re-computation for random deltas,
// and the accumulator-Reduce fast path (§3.5).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/wordcount.h"
#include "common/codec.h"
#include "common/random.h"
#include "core/incr_job.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "mr/cluster.h"

namespace i2mr {
namespace {

// The paper's running example (Fig. 3): compute the sum of in-edge weights
// per vertex. Input record: <i, "j1:w1 j2:w2">; Map emits <j, w>; Reduce
// sums.
class InEdgeSumMapper : public Mapper {
 public:
  void Map(const std::string& /*key*/, const std::string& value,
           MapContext* ctx) override {
    for (const auto& [j, w] : ParseWeightedAdjacency(value)) {
      ctx->Emit(j, FormatDouble(w));
    }
  }
};

class SumReducer : public Reducer {
 public:
  void Reduce(const std::string& key, const std::vector<std::string>& values,
              ReduceContext* ctx) override {
    double sum = 0;
    for (const auto& v : values) sum += *ParseDouble(v);
    ctx->Emit(key, FormatDouble(sum));
  }
};

IncrJobSpec InEdgeSumSpec(const std::string& name, int reducers) {
  IncrJobSpec spec;
  spec.name = name;
  spec.num_reduce_tasks = reducers;
  spec.mapper = [] { return std::make_unique<InEdgeSumMapper>(); };
  spec.reducer = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::map<std::string, double> InEdgeSumReference(const std::vector<KV>& graph) {
  std::map<std::string, double> sums;
  for (const auto& kv : graph) {
    for (const auto& [j, w] : ParseWeightedAdjacency(kv.value)) sums[j] += w;
  }
  return sums;
}

std::map<std::string, double> ToDoubleMap(const std::vector<KV>& kvs) {
  std::map<std::string, double> out;
  for (const auto& kv : kvs) out[kv.key] = *ParseDouble(kv.value);
  return out;
}

void ExpectNear(const std::map<std::string, double>& got,
                const std::map<std::string, double>& want, double tol = 1e-9) {
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [k, v] : want) {
    auto it = got.find(k);
    ASSERT_NE(it, got.end()) << "missing key " << k;
    EXPECT_NEAR(it->second, v, tol) << "key " << k;
  }
}

class CoreIncrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_core_incr";
  }
  std::string root_;
};

TEST_F(CoreIncrTest, PaperRunningExample) {
  // Fig. 3 of the paper: initial graph, then delete vertex 1, insert vertex
  // 3, and modify vertex 0's edges.
  LocalCluster cluster(root_, 2);
  std::vector<KV> initial = {
      {"0", "1:0.3 2:0.3"},
      {"1", "2:0.4"},
      {"2", "0:0.5"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", initial, 2).ok());

  IncrementalOneStepJob job(&cluster, InEdgeSumSpec("inedge", 2));
  auto init = job.RunInitial(*cluster.dfs()->Parts("in"));
  ASSERT_TRUE(init.ok()) << init.status().ToString();

  auto results = job.Results();
  ASSERT_TRUE(results.ok());
  ExpectNear(ToDoubleMap(*results), InEdgeSumReference(initial));

  // Delta per Fig. 3(b): deletion of vertex 1, insertion of vertex 3,
  // modification of vertex 0.
  std::vector<DeltaKV> delta = {
      {DeltaOp::kDelete, "1", "2:0.4"},
      {DeltaOp::kInsert, "3", "0:0.1"},
      {DeltaOp::kDelete, "0", "1:0.3 2:0.3"},
      {DeltaOp::kInsert, "0", "2:0.6"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("delta", delta, 2).ok());
  auto incr = job.RunIncremental(*cluster.dfs()->Parts("delta"));
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();

  std::vector<KV> updated = {
      {"0", "2:0.6"},
      {"2", "0:0.5"},
      {"3", "0:0.1"},
  };
  results = job.Results();
  ASSERT_TRUE(results.ok());
  // Vertex 1 lost all in-edges: per the engine its reduce instance becomes
  // empty and its result is removed (matching a from-scratch run).
  ExpectNear(ToDoubleMap(*results), InEdgeSumReference(updated));
}

TEST_F(CoreIncrTest, IncrementalTouchesOnlyAffectedInstances) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 400;
  gen.weighted = true;
  auto graph = GenGraph(gen);
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", graph, 4).ok());

  IncrementalOneStepJob job(&cluster, InEdgeSumSpec("touch", 4));
  auto init = job.RunInitial(*cluster.dfs()->Parts("in"));
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init->map_instances, 400);
  int64_t total_groups = init->reduce_instances;

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.05;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("delta", delta, 4).ok());
  auto incr = job.RunIncremental(*cluster.dfs()->Parts("delta"));
  ASSERT_TRUE(incr.ok());

  // Map: one instance per delta record; Reduce: only affected K2s.
  EXPECT_EQ(incr->map_instances, static_cast<int64_t>(delta.size()));
  EXPECT_LT(incr->reduce_instances, total_groups);
  EXPECT_GT(incr->reduce_instances, 0);

  ExpectNear(ToDoubleMap(*job.Results()), InEdgeSumReference(graph), 1e-6);
}

// Property: for random update/insert/delete mixes, incremental refresh ==
// re-computation from scratch.
class IncrPropertyTest : public CoreIncrTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(IncrPropertyTest, IncrementalEqualsRecompute) {
  const int seed = GetParam();
  LocalCluster cluster(root_ + std::to_string(seed), 3);
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 6;
  gen.weighted = true;
  gen.seed = seed;
  auto graph = GenGraph(gen);
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", graph, 3).ok());

  IncrementalOneStepJob job(&cluster, InEdgeSumSpec("prop", 3));
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("in")).ok());

  // Three consecutive refreshes with different delta mixes.
  GraphDeltaOptions mixes[3];
  mixes[0].update_fraction = 0.2;
  mixes[1].update_fraction = 0.05;
  mixes[1].insert_fraction = 0.1;
  mixes[2].update_fraction = 0.05;
  mixes[2].delete_fraction = 0.1;
  for (int round = 0; round < 3; ++round) {
    mixes[round].seed = seed * 100 + round;
    auto delta = GenGraphDelta(gen, mixes[round], &graph);
    std::string name = "delta" + std::to_string(round);
    ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset(name, delta, 3).ok());
    auto incr = job.RunIncremental(*cluster.dfs()->Parts(name));
    ASSERT_TRUE(incr.ok()) << incr.status().ToString();
    auto results = job.Results();
    ASSERT_TRUE(results.ok());
    ExpectNear(ToDoubleMap(*results), InEdgeSumReference(graph), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrPropertyTest, ::testing::Values(1, 2, 3, 7, 11));

TEST_F(CoreIncrTest, AccumulatorWordCountMatchesReference) {
  LocalCluster cluster(root_, 3);
  std::vector<KV> docs = {
      {"d0", "apple banana apple"},
      {"d1", "banana cherry"},
      {"d2", "apple cherry cherry date"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDataset("docs", docs, 2).ok());

  IncrementalOneStepJob job(&cluster, wordcount::MakeSpec("wc", 3));
  ASSERT_TRUE(job.accumulator_mode());
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("docs")).ok());

  std::vector<DeltaKV> delta = {
      {DeltaOp::kInsert, "d3", "apple egg"},
      {DeltaOp::kInsert, "d4", "egg egg banana"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("delta", delta, 2).ok());
  ASSERT_TRUE(job.RunIncremental(*cluster.dfs()->Parts("delta")).ok());

  std::vector<KV> all = docs;
  all.push_back({"d3", "apple egg"});
  all.push_back({"d4", "egg egg banana"});
  auto want = wordcount::Reference(all);
  auto got = job.Results();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want.size());
  for (const auto& kv : *got) {
    EXPECT_EQ(*ParseNum(kv.value), want[kv.key]) << kv.key;
  }
}

TEST_F(CoreIncrTest, AccumulatorRejectsDeletions) {
  LocalCluster cluster(root_, 2);
  std::vector<KV> docs = {{"d0", "a b"}};
  ASSERT_TRUE(cluster.dfs()->WriteDataset("docs", docs, 1).ok());
  IncrementalOneStepJob job(&cluster, wordcount::MakeSpec("wc", 2));
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("docs")).ok());

  std::vector<DeltaKV> delta = {{DeltaOp::kDelete, "d0", "a b"}};
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("delta", delta, 1).ok());
  auto incr = job.RunIncremental(*cluster.dfs()->Parts("delta"));
  EXPECT_FALSE(incr.ok());
}

TEST_F(CoreIncrTest, MrbgWordCountSupportsDeletions) {
  LocalCluster cluster(root_, 2);
  std::vector<KV> docs = {
      {"d0", "x y x"},
      {"d1", "y z"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDataset("docs", docs, 2).ok());
  IncrementalOneStepJob job(&cluster, wordcount::MakeMrbgSpec("wcm", 2));
  ASSERT_FALSE(job.accumulator_mode());
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("docs")).ok());

  // Update d0 (update = delete + insert) and delete d1.
  std::vector<DeltaKV> delta = {
      {DeltaOp::kDelete, "d0", "x y x"},
      {DeltaOp::kInsert, "d0", "x w"},
      {DeltaOp::kDelete, "d1", "y z"},
  };
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("delta", delta, 2).ok());
  ASSERT_TRUE(job.RunIncremental(*cluster.dfs()->Parts("delta")).ok());

  auto want = wordcount::Reference({{"d0", "x w"}});
  auto got = job.Results();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), want.size());
  for (const auto& kv : *got) {
    EXPECT_EQ(*ParseNum(kv.value), want[kv.key]) << kv.key;
  }
}

TEST_F(CoreIncrTest, AccumulatorAndMrbgModesAgree) {
  LocalCluster c1(root_ + "_acc", 2);
  LocalCluster c2(root_ + "_mrbg", 2);
  std::vector<KV> docs;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    std::string text;
    for (int w = 0; w < 8; ++w) {
      if (w > 0) text += " ";
      text += "w" + std::to_string(rng.Uniform(20));
    }
    docs.push_back({PaddedNum(i), text});
  }
  ASSERT_TRUE(c1.dfs()->WriteDataset("docs", docs, 2).ok());
  ASSERT_TRUE(c2.dfs()->WriteDataset("docs", docs, 2).ok());

  IncrementalOneStepJob acc(&c1, wordcount::MakeSpec("wc", 2));
  IncrementalOneStepJob mrbg(&c2, wordcount::MakeMrbgSpec("wc", 2));
  ASSERT_TRUE(acc.RunInitial(*c1.dfs()->Parts("docs")).ok());
  ASSERT_TRUE(mrbg.RunInitial(*c2.dfs()->Parts("docs")).ok());

  std::vector<DeltaKV> delta;
  for (int i = 50; i < 60; ++i) {
    delta.push_back({DeltaOp::kInsert, PaddedNum(i), "w1 w2 w" +
                     std::to_string(rng.Uniform(20))});
  }
  ASSERT_TRUE(c1.dfs()->WriteDeltaDataset("d", delta, 2).ok());
  ASSERT_TRUE(c2.dfs()->WriteDeltaDataset("d", delta, 2).ok());
  ASSERT_TRUE(acc.RunIncremental(*c1.dfs()->Parts("d")).ok());
  ASSERT_TRUE(mrbg.RunIncremental(*c2.dfs()->Parts("d")).ok());

  auto r1 = acc.Results();
  auto r2 = mrbg.Results();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

TEST_F(CoreIncrTest, RepeatedEmptyDeltaIsNoop) {
  LocalCluster cluster(root_, 2);
  std::vector<KV> initial = {{"0", "1:1.0"}, {"1", "0:2.0"}};
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", initial, 1).ok());
  IncrementalOneStepJob job(&cluster, InEdgeSumSpec("noop", 2));
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("in")).ok());
  auto before = job.Results();
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("empty", {}, 1).ok());
  auto incr = job.RunIncremental(*cluster.dfs()->Parts("empty"));
  ASSERT_TRUE(incr.ok());
  EXPECT_EQ(incr->map_instances, 0);
  EXPECT_EQ(incr->reduce_instances, 0);
  auto after = job.Results();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(CoreIncrTest, StoreStatsReportIo) {
  LocalCluster cluster(root_, 2);
  GraphGenOptions gen;
  gen.num_vertices = 200;
  gen.weighted = true;
  auto graph = GenGraph(gen);
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", graph, 2).ok());
  IncrementalOneStepJob job(&cluster, InEdgeSumSpec("stats", 2));
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("in")).ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset("d", delta, 2).ok());
  auto incr = job.RunIncremental(*cluster.dfs()->Parts("d"));
  ASSERT_TRUE(incr.ok());
  EXPECT_GT(incr->store_io_reads, 0u);
  EXPECT_GT(incr->store_bytes_read, 0u);
  EXPECT_GE(incr->merge_ms, 0.0);
}

// Every refresh reopens the partition's MRBG store, and every open starts
// a fresh segment: the store's segment count must stay bounded by the
// compaction policy, not grow with the number of refreshes.
TEST_F(CoreIncrTest, RepeatedRefreshesKeepSegmentCountBounded) {
  LocalCluster cluster(root_, 2);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  gen.weighted = true;
  auto graph = GenGraph(gen);
  ASSERT_TRUE(cluster.dfs()->WriteDataset("in", graph, 2).ok());
  IncrJobSpec spec = InEdgeSumSpec("bounded", 2);
  const size_t max_segments = spec.store_options.compact_max_segments + 1;
  IncrementalOneStepJob job(&cluster, spec);
  ASSERT_TRUE(job.RunInitial(*cluster.dfs()->Parts("in")).ok());

  for (int round = 0; round < 12; ++round) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.05;
    dopt.seed = 500 + round;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    std::string name = "delta" + std::to_string(round);
    ASSERT_TRUE(cluster.dfs()->WriteDeltaDataset(name, delta, 2).ok());
    auto incr = job.RunIncremental(*cluster.dfs()->Parts(name));
    ASSERT_TRUE(incr.ok()) << incr.status().ToString();
    for (int r = 0; r < 2; ++r) {
      char part[16];
      std::snprintf(part, sizeof(part), "part-%03d", r);
      auto files = ListFiles(
          JoinPath(cluster.root(), std::string("state/bounded/") + part +
                                       "/mrbg"));
      ASSERT_TRUE(files.ok());
      size_t segments = 0;
      for (const auto& f : *files) {
        if (f.find("/seg-") != std::string::npos) ++segments;
      }
      EXPECT_LE(segments, max_segments) << "round " << round << " " << part;
    }
  }
  ExpectNear(ToDoubleMap(*job.Results()), InEdgeSumReference(graph), 1e-6);
}

}  // namespace
}  // namespace i2mr
