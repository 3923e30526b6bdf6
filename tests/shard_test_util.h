// Graph, state and parity helpers shared by the sharded-serving suites
// (serving, serving parity, resharding, replication).
#ifndef I2MR_TESTS_SHARD_TEST_UTIL_H_
#define I2MR_TESTS_SHARD_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "common/codec.h"
#include "serving/shard_router.h"

namespace i2mr {

/// PageRank's initial state: rank 1 for every vertex of `structure`.
inline std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

/// The app's initial state for every vertex of `graph`.
inline std::vector<KV> InitStateFor(const IterJobSpec& spec,
                                    const std::vector<KV>& graph) {
  std::vector<KV> state;
  state.reserve(graph.size());
  for (const auto& kv : graph) {
    state.push_back(KV{kv.key, spec.init_state(kv.key)});
  }
  return state;
}

/// Directed ring i -> i+1 (mod n), unit weights when `weighted`: with
/// hashed shard assignment nearly every edge crosses a shard boundary and
/// every vertex's reduce input comes from another shard — the adversarial
/// case for the coordinated refresh, the reshard transfer and failover.
inline std::vector<KV> RingGraph(int n, bool weighted) {
  std::vector<KV> graph;
  graph.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string dest = PaddedNum((i + 1) % n);
    graph.push_back(KV{PaddedNum(i), weighted ? dest + ":1" : dest});
  }
  return graph;
}

/// Append a weighted shortcut edge from -> to (replacing `from`'s
/// adjacency record in `graph` and returning the delete + insert pair):
/// distances only decrease, so incremental SSSP stays the exact fixpoint
/// of the final graph.
inline std::vector<DeltaKV> AddShortcut(std::vector<KV>* graph, int from,
                                        int to, const std::string& weight) {
  const std::string key = PaddedNum(from);
  std::vector<DeltaKV> batch;
  for (auto& kv : *graph) {
    if (kv.key != key) continue;
    std::string next = kv.value + " " + PaddedNum(to) + ":" + weight;
    batch.push_back(DeltaKV{DeltaOp::kDelete, kv.key, kv.value});
    batch.push_back(DeltaKV{DeltaOp::kInsert, kv.key, next});
    kv.value = next;
    break;
  }
  return batch;
}

/// Exact propagation on the incremental path, `shards` coordinated shards.
inline ShardRouterOptions CoordinatedOptions(IterJobSpec spec, int shards) {
  ShardRouterOptions options;
  options.num_shards = shards;
  options.workers_per_shard = 2;
  options.pipeline.spec = std::move(spec);
  options.pipeline.engine.filter_threshold = 0.0;
  options.pipeline.engine.mrbg_auto_off_ratio = 2;
  return options;
}

/// PageRank fleet of `num_shards` with small log segments (exercises
/// rotation and archiving).
inline ShardRouterOptions PageRankShards(int num_shards, int partitions = 2) {
  ShardRouterOptions options = CoordinatedOptions(
      pagerank::MakeIterSpec("pr", partitions, 100, 1e-9), num_shards);
  options.pipeline.log.segment_bytes = 8 << 10;
  return options;
}

/// Every shard primary's committed result, as one key-sorted vector.
inline std::vector<KV> ShardedSnapshot(const ShardRouter& router) {
  std::vector<KV> all;
  for (int s = 0; s < router.num_shards(); ++s) {
    auto part = router.shard(s)->ServingSnapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

inline std::map<std::string, std::string> ToMap(const std::vector<KV>& kvs) {
  std::map<std::string, std::string> m;
  for (const auto& kv : kvs) m[kv.key] = kv.value;
  return m;
}

/// Numeric parity: every key present in both, values equal within `tol`
/// (values >= 1e29 are treated as "infinity", SSSP's unreachable marker).
inline void ExpectNumericParity(const std::vector<KV>& got_kvs,
                                const std::vector<KV>& want_kvs, double tol,
                                const std::string& what) {
  auto got = ToMap(got_kvs), want = ToMap(want_kvs);
  ASSERT_EQ(got.size(), want.size()) << what << ": key sets differ";
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    ASSERT_TRUE(it != got.end()) << what << ": missing key " << key;
    auto a = ParseDouble(it->second);
    auto b = ParseDouble(value);
    ASSERT_TRUE(a.ok() && b.ok()) << what << ": unparsable value at " << key;
    if (*a >= 1e29 && *b >= 1e29) continue;
    EXPECT_NEAR(*a, *b, tol) << what << ": key " << key;
  }
}

inline void ExpectExactParity(const std::vector<KV>& got_kvs,
                              const std::vector<KV>& want_kvs,
                              const std::string& what) {
  auto got = ToMap(got_kvs), want = ToMap(want_kvs);
  ASSERT_EQ(got.size(), want.size()) << what << ": key sets differ";
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    ASSERT_TRUE(it != got.end()) << what << ": missing key " << key;
    EXPECT_EQ(it->second, value) << what << ": key " << key;
  }
}

/// Whole-graph check: every served rank is within serving_parity_test's
/// tolerance (1e-5) of a from-scratch PageRank over `graph` — the
/// coordinated refresh folds in every cross-shard contribution, so no
/// shard answers for its own subgraph alone.
inline void ExpectWholeGraphRanks(const std::vector<KV>& served,
                                  const std::vector<KV>& graph) {
  ExpectNumericParity(served, pagerank::Reference(graph, 100, 1e-9), 1e-5,
                      "whole-graph PageRank");
}

}  // namespace i2mr

#endif  // I2MR_TESTS_SHARD_TEST_UTIL_H_
