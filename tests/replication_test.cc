// Tests for the read-replica subsystem: delta-log + epoch shipping to
// followers, pinned reads over replica backends, kill-a-replica
// availability (reads keep succeeding, lag recovers after restart),
// compressed-archive shipping, and promote-on-primary-death failover on a
// coordinated fleet (a lost primary refuses writes, epochs and reshards;
// the promoted follower serves exactly the pre-crash committed epoch and
// the fleet keeps ingesting, equal to the unsharded answer). Runs in the
// TSan matrix: the concurrent-reader sections double as race checks on the
// shipper/cutover paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "common/health.h"
#include "common/metrics.h"
#include "data/graph_gen.h"
#include "io/compress.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "pipeline/delta_log.h"
#include "replication/replica_set.h"
#include "serving/reshard.h"
#include "serving/shard_router.h"
#include "shard_test_util.h"

namespace i2mr {
namespace {

ShardRouterOptions SsspShards(const std::string& source) {
  return CoordinatedOptions(sssp::MakeIterSpec("sp", source, 2, 200), 2);
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/i2mr_replication";
    replicas_ = ::testing::TempDir() + "/i2mr_replication_replicas";
    ASSERT_TRUE(ResetDir(root_).ok());
    ASSERT_TRUE(ResetDir(replicas_).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }

  void AppendDelta(ShardRouter* router, std::vector<KV>* graph,
                   const GraphGenOptions& gen, int seed) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.seed = seed;
    auto delta = GenGraphDelta(gen, dopt, graph);
    ASSERT_TRUE(
        router->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
            .ok());
  }

  std::string root_;
  std::string replicas_;
};

// ---------------------------------------------------------------------------
// Shipping
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ShipsCommittedEpochsAndServesThemFromFollowers) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  ro.read_from_primary = false;  // reads must come from followers
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Every follower applied exactly the primary's committed epoch, counted
  // honest shipped bytes, and reports zero lag.
  for (int s = 0; s < 2; ++s) {
    FollowerReplica* f = (*set)->replica(s, 0);
    EXPECT_EQ(f->pipeline()->committed_epoch(),
              (*router)->shard(s)->committed_epoch());
    EXPECT_EQ(f->pipeline()->committed_watermark(),
              (*router)->shard(s)->committed_watermark());
    EXPECT_GT(f->shipped_bytes()->value(), 0);
    EXPECT_TRUE((*set)->ReplicaLag(s, 0) == 0 &&
                !(*set)->IsReplicaStale(s, 0));
  }

  // Follower-served reads agree with the primary for every key.
  for (const auto& kv : graph) {
    auto replica_read = (*set)->Get(kv.key);
    ASSERT_TRUE(replica_read.ok()) << kv.key;
    auto primary_read = (*router)->Lookup(kv.key);
    ASSERT_TRUE(primary_read.ok());
    EXPECT_EQ(*replica_read, *primary_read);
  }

  // New epochs keep flowing: append, drain, sync, re-check.
  AppendDelta(router->get(), &graph, gen, 41);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());
  auto snap = (*set)->PinSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->epochs(), (*router)->CommittedEpochs());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*set)->replica(s, 0)->pipeline()->committed_epoch(),
              (*router)->shard(s)->committed_epoch());
    EXPECT_GT((*set)->replica(s, 0)->applied_epochs()->value(), 1);
  }
}

TEST_F(ReplicationTest, PinnedSnapshotNeverMixesEpochs) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  auto set = ReplicaSet::Open(router->get(), replicas_, ReplicaSetOptions{});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Shard 0's follower stops receiving epochs — every copy into its epoch
  // slots fails on its disk (an in-flight pass is waited out first) — but
  // stays in the set's read rotation: one epoch behind is within
  // max_replica_lag_epochs.
  ASSERT_TRUE((*set)->shipper(0)->SyncNow().ok());
  fault::FaultRule rule;
  rule.ops = fault::kLink;
  rule.path_substr =
      JoinPath(replicas_, "shard-000/replica-0/pipeline/pr/epoch-");
  rule.kind = fault::FaultKind::kEIO;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);
  AppendDelta(router->get(), &graph, gen, 43);
  ASSERT_TRUE((*router)->DrainAll().ok());
  EXPECT_FALSE((*set)->shipper(0)->SyncNow().ok());
  ASSERT_TRUE((*set)->shipper(1)->SyncNow().ok());
  ASSERT_EQ((*set)->replica(0, 0)->pipeline()->committed_epoch() + 1,
            (*router)->shard(0)->committed_epoch());
  ASSERT_FALSE((*set)->IsReplicaStale(0, 0));

  // Every pin is one uniform cut, whichever backends the rotation picks.
  for (int i = 0; i < 8; ++i) {
    auto snap = (*set)->PinSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(snap->epochs(), (*router)->CommittedEpochs()) << "pin " << i;
  }
}

TEST_F(ReplicationTest, InstallRefusesAnEpochOfAnotherGeneration) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  auto set = ReplicaSet::Open(router->get(), replicas_, ReplicaSetOptions{});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());
  Pipeline* follower = (*set)->replica(0, 0)->pipeline();
  const uint64_t served = follower->committed_epoch();
  ASSERT_EQ(follower->generation(), 0u);

  // The primary's committed epoch, re-sealed as the next epoch and stamped
  // with partition-map generation `generation`.
  EpochPin pin = (*router)->shard(0)->PinServing();
  const uint64_t next = pin.epoch() + 1;
  auto restamp = [&](uint64_t generation) {
    EpochStore store(root_ + "_gen" + std::to_string(generation), false);
    EXPECT_TRUE(ResetDir(store.dir()).ok());
    EXPECT_TRUE(store.OpenSlot(next).ok());
    std::filesystem::copy(pin.dir(), store.SlotDir(next),
                          std::filesystem::copy_options::recursive);
    EXPECT_TRUE(store.WriteManifest(next, pin.watermark(), generation).ok());
    EXPECT_TRUE(store.Seal(next).ok());
    return store.EpochDir(next);
  };

  // Another generation's state was partitioned by another map: refused,
  // nothing of it left behind, the served epoch untouched.
  auto refused = follower->InstallEpoch(next, pin.watermark(), restamp(7));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kFailedPrecondition)
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("generation 7"), std::string::npos)
      << refused.status().ToString();
  EXPECT_FALSE(
      FileExists(JoinPath(follower->dir(), EpochStore::EpochDirName(next))));
  EXPECT_FALSE(FileExists(
      JoinPath(follower->dir(), EpochStore::EpochDirName(next) + ".tmp")));
  EXPECT_FALSE(follower->FinalizeStagedEpoch().ok());  // nothing staged
  EXPECT_EQ(follower->committed_epoch(), served);
  EpochPin after = (*set)->replica(0, 0)->PinServing();
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.epoch(), served);

  // The same epoch of the follower's own generation installs.
  auto installed = follower->InstallEpoch(next, pin.watermark(), restamp(0));
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_GT(*installed, 0u);
  ASSERT_TRUE(follower->FinalizeStagedEpoch().ok());
  EXPECT_EQ(follower->committed_epoch(), next);
}

TEST_F(ReplicationTest, ShipsCompressedArchiveSegmentsTransparently) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  ShardRouterOptions options = PageRankShards(2);
  options.pipeline.log.segment_bytes = 2 << 10;  // rotate often
  options.pipeline.log.archive_purged = true;
  options.pipeline.log.compress_archive = true;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  for (int round = 1; round <= 3; ++round) {
    AppendDelta(router->get(), &graph, gen, 50 + round);
    ASSERT_TRUE((*router)->DrainAll().ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());

  // The primary archived consumed segments as compressed .lzd files and
  // the shipper landed (some of) them at the followers unmodified.
  bool saw_compressed = false;
  for (int s = 0; s < 2; ++s) {
    auto held =
        ListFiles(JoinPath((*set)->replica(s, 0)->pipeline()->dir(), "log"));
    ASSERT_TRUE(held.ok());
    for (const auto& seg : *held) {
      if (IsCompressedDeltaLogSegmentFile(seg)) saw_compressed = true;
    }
  }
  EXPECT_TRUE(saw_compressed) << "no compressed archive segment was shipped";

  // Failover on top of a compressed shipped log: the promoted pipeline's
  // recovery scan reads .lzd archives transparently.
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  uint64_t pre_crash = (*router)->shard(0)->committed_epoch();
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*set)->primary(0)->committed_epoch(), pre_crash);

  ExpectWholeGraphRanks(ShardedSnapshot(**router), graph);
}

TEST_F(ReplicationTest, ArchivedTwinOfShippedRawSegmentNeverBlocksPromotion) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  ShardRouterOptions options = PageRankShards(2);
  options.pipeline.log.segment_bytes = 2 << 10;  // rotate often
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Seal fresh raw segments past the follower's applied watermark and ship
  // them. No drain: the follower holds the raw records but never applies a
  // newer epoch, so its purge mark can't retire them — the lagging
  // follower failover exists for.
  for (int round = 0; round < 8; ++round) {
    AppendDelta(router->get(), &graph, gen, 77 + round);
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  ASSERT_TRUE((*set)->KillPrimary(0).ok());

  // Emulate the primary having archived those same spans as compressed
  // `.lzd` twins before dying (the shipper's first-seq dedup normally
  // skips them; a direct install must replace — never duplicate — the raw
  // copy, since both cover the same seq range and a promoted root's
  // recovery scan rejects a duplicated span as a sequence regression).
  FollowerReplica* f = (*set)->replica(0, 0);
  const std::string log_dir = JoinPath(f->pipeline()->dir(), "log");
  auto held = ListFiles(log_dir);
  ASSERT_TRUE(held.ok());
  std::string scratch = root_ + "_twin_scratch";
  ASSERT_TRUE(ResetDir(scratch).ok());
  int twins = 0;
  for (const auto& seg : *held) {
    if (!IsDeltaLogSegmentFile(seg) || IsCompressedDeltaLogSegmentFile(seg)) {
      continue;
    }
    auto raw = ReadFileToString(seg);
    ASSERT_TRUE(raw.ok());
    std::string compressed;
    LzCompress(*raw, &compressed);
    std::string base = seg.substr(seg.find_last_of('/') + 1);
    std::string lzd =
        JoinPath(scratch, base.substr(0, base.size() - 4) + ".lzd");
    ASSERT_TRUE(WriteStringToFile(lzd, compressed, false).ok());
    ASSERT_TRUE(InstallDeltaLogSegment(log_dir, lzd, false).ok()) << lzd;
    ++twins;
  }
  ASSERT_GT(twins, 0) << "no raw shipped segment to re-encode";
  auto after = ListFiles(log_dir);
  ASSERT_TRUE(after.ok());
  const size_t segment_files = std::count_if(
      after->begin(), after->end(),
      [](const std::string& path) { return IsDeltaLogSegmentFile(path); });
  EXPECT_EQ(segment_files, DeltaLogSegmentFirstSeqs(log_dir).size())
      << "follower holds twin raw+compressed copies of a segment";

  // The promoted pipeline's recovery scans every held segment file; with
  // exactly one form per span it replays the shipped backlog cleanly.
  uint64_t pre_crash_applied = f->pipeline()->committed_epoch();
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ((*set)->primary(0)->committed_epoch(), pre_crash_applied);
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) != 0) continue;
    EXPECT_TRUE((*set)->Get(kv.key).ok());
    break;
  }
}

// ---------------------------------------------------------------------------
// Kill a replica: availability + lag recovery
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, KillReplicaKeepsReadsServingAndLagRecovers) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Hammer reads from another thread across the kill window; every read
  // must succeed (remaining backends cover the shard).
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0}, done{0};
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load()) {
      const auto& kv = graph[i++ % graph.size()];
      auto v = (*set)->Get(kv.key);
      if (!v.ok()) failed.fetch_add(1);
      done.fetch_add(1);
    }
  });

  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE((*set)->KillReplica(s, 0).ok());
    EXPECT_TRUE((*set)->IsReplicaStale(s, 0));
  }

  // The killed replicas fall behind while the primaries keep committing.
  for (int round = 1; round <= 2; ++round) {
    AppendDelta(router->get(), &graph, gen, 60 + round);
    ASSERT_TRUE((*router)->DrainAll().ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_GT((*set)->ReplicaLag(s, 0), 0u);
    EXPECT_TRUE((*set)->IsReplicaStale(s, 0));
    // The surviving replica stayed caught up.
    EXPECT_EQ((*set)->ReplicaLag(s, 1), 0u);
    EXPECT_FALSE((*set)->IsReplicaStale(s, 1));
  }

  // Restart: the shipper catches the replicas back up and routing
  // readmits them.
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE((*set)->RestartReplica(s, 0).ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*set)->ReplicaLag(s, 0), 0u);
    EXPECT_FALSE((*set)->IsReplicaStale(s, 0));
    EXPECT_EQ((*set)->replica(s, 0)->pipeline()->committed_epoch(),
              (*router)->shard(s)->committed_epoch());
  }

  stop.store(true);
  reader.join();
  EXPECT_GT(done.load(), 0);
  EXPECT_EQ(failed.load(), 0) << failed.load() << " of " << done.load()
                              << " reads failed during the kill window";
}

// ---------------------------------------------------------------------------
// Kill the primary: promote a follower
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, PromoteOnPrimaryDeathServesExactCommittedState) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  AppendDelta(router->get(), &graph, gen, 71);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  const uint64_t pre_crash_epoch = (*router)->shard(0)->committed_epoch();
  std::map<std::string, std::string> pre_crash;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) != 0) continue;
    auto v = (*router)->Lookup(kv.key);
    ASSERT_TRUE(v.ok());
    pre_crash[kv.key] = *v;
  }

  // Concurrent reads across kill + promotion: zero failures allowed.
  std::atomic<bool> stop{false};
  std::atomic<int> failed{0}, done{0};
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load()) {
      const auto& kv = graph[i++ % graph.size()];
      auto v = (*set)->Get(kv.key);
      if (!v.ok()) failed.fetch_add(1);
      done.fetch_add(1);
    }
  });

  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  EXPECT_TRUE((*set)->primary_dead(0));
  // Writes to the dead shard are refused until a replica is promoted.
  ASSERT_FALSE(pre_crash.empty());
  EXPECT_FALSE((*set)
                   ->Append(DeltaKV{DeltaOp::kInsert, pre_crash.begin()->first,
                                    "0000000002"})
                   .ok());

  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE((*set)->primary_dead(0));
  EXPECT_EQ((*router)->shard(0), (*set)->primary(0));

  stop.store(true);
  reader.join();
  EXPECT_GT(done.load(), 0);
  EXPECT_EQ(failed.load(), 0) << failed.load() << " of " << done.load()
                              << " reads failed across the failover";

  // The promoted pipeline serves exactly the epoch the dead primary had
  // durably committed, value-for-value.
  Pipeline* promoted_primary = (*set)->primary(0);
  EXPECT_EQ(promoted_primary->committed_epoch(), pre_crash_epoch);
  for (const auto& [key, value] : pre_crash) {
    auto v = promoted_primary->Lookup(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }

  // The shard ingests again through the promoted primary (the router owns
  // it now), the fleet stays exact vs a whole-graph recompute, and
  // replication to the survivor resumes.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.08;
  dopt.seed = 72;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*set)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  ExpectWholeGraphRanks(ShardedSnapshot(**router), graph);
  int survivor = *promoted == 0 ? 1 : 0;
  EXPECT_EQ((*set)->replica(0, survivor)->pipeline()->committed_epoch(),
            (*set)->primary(0)->committed_epoch());
  EXPECT_FALSE((*set)->IsReplicaStale(0, survivor));
  // The promoted follower's closed slot reports as the primary it became,
  // not as a follower left behind by the epoch committed after failover.
  EXPECT_GT((*set)->primary(0)->committed_epoch(), pre_crash_epoch);
  EXPECT_EQ((*set)->ReplicaLag(0, *promoted), 0u);
  EXPECT_FALSE((*set)->IsReplicaStale(0, *promoted));
  EXPECT_TRUE((*set)->IsReplicaPromoted(0, *promoted));
  EXPECT_FALSE((*set)->IsReplicaPromoted(0, survivor));
}

TEST_F(ReplicationTest, PromoteRefusesACorruptFollowerRootUntouched) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  auto router = ShardRouter::Open(root_, "pr", PageRankShards(2));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());
  auto set = ReplicaSet::Open(router->get(), replicas_, ReplicaSetOptions{});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  AppendDelta(router->get(), &graph, gen, 81);
  ASSERT_TRUE((*router)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Garble the first length prefix of the follower's applied state.dat
  // (rewritten as a fresh file, so no hard link shares the damage).
  FollowerReplica* f = (*set)->replica(0, 0);
  const uint64_t applied = f->pipeline()->committed_epoch();
  const std::string pdir = f->pipeline()->dir();
  const std::string state =
      JoinPath(JoinPath(JoinPath(pdir, EpochStore::EpochDirName(applied)),
                        EpochStore::PartDirName(0)),
               "state.dat");
  auto bytes = ReadFileToString(state);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_GT(bytes->size(), 4u);
  bytes->replace(0, 4, 4, '\xff');
  ASSERT_TRUE(RemoveAll(state).ok());
  ASSERT_TRUE(WriteStringToFile(state, *bytes).ok());
  auto log_before = ListFiles(JoinPath(pdir, "log"));
  ASSERT_TRUE(log_before.ok());

  // Promotion verifies the follower's committed epoch on disk before
  // anything touches the root: refused as Corruption, the shard stays
  // lost, and the follower's log is as found.
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), Status::Code::kCorruption)
      << promoted.status().ToString();
  EXPECT_TRUE((*set)->primary_dead(0));
  auto log_after = ListFiles(JoinPath(pdir, "log"));
  ASSERT_TRUE(log_after.ok());
  EXPECT_EQ(*log_after, *log_before);

  // The refused follower is still a follower serving its published epoch
  // (from memory: the damage is on disk), and reads of the dead shard go
  // on through it.
  EpochPin pin = f->PinServing();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), applied);
  EXPECT_FALSE((*set)->IsReplicaStale(0, 0));
  EXPECT_FALSE((*set)->IsReplicaPromoted(0, 0));
  int shard0_reads = 0;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) != 0) continue;
    auto v = (*set)->Get(kv.key);
    ASSERT_TRUE(v.ok()) << kv.key << ": " << v.status().ToString();
    auto frozen = pin.Lookup(kv.key);
    ASSERT_TRUE(frozen.ok()) << kv.key;
    EXPECT_EQ(*v, *frozen) << kv.key;
    ++shard0_reads;
  }
  EXPECT_GT(shard0_reads, 0);
}

// A follower is a pipeline that registers no "pipeline.<name>" health
// entry until it is promoted: constructing one resets the entry to
// healthy, which would hide a degraded primary of the same name.
TEST_F(ReplicationTest, FollowersLeaveTheDegradedPrimaryHealthEntryAlone) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  ShardRouterOptions options = PageRankShards(2);
  options.metrics = &metrics;
  options.health = &health;
  auto router = ShardRouter::Open(root_, "pr", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, UnitState(graph)).ok());

  // Shard 0's primary runs out of space: its appends exhaust the retries
  // and it degrades to read-only.
  fault::FaultRule rule;
  rule.ops = fault::kAppend;
  rule.path_substr = JoinPath(root_, "shard-000/pipeline/pr/log");
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);
  std::string key0;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) == 0) {
      key0 = kv.key;
      break;
    }
  }
  ASSERT_FALSE(key0.empty());
  EXPECT_FALSE((*router)->Append(DeltaKV{DeltaOp::kInsert, key0, "1"}).ok());
  ASSERT_TRUE((*router)->shard(0)->degraded());
  ASSERT_EQ(health.state("pipeline.pr"), HealthState::kDegraded);

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kDegraded)
      << "opening the followers";
  ASSERT_TRUE((*set)->SyncAll().ok());
  EXPECT_EQ((*set)->replica(0, 0)->pipeline()->committed_epoch(),
            (*router)->shard(0)->committed_epoch());
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kDegraded)
      << "a ship pass";
  ASSERT_TRUE((*set)->KillReplica(0, 0).ok());
  ASSERT_TRUE((*set)->RestartReplica(0, 0).ok());
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kDegraded)
      << "restarting a follower";
  EXPECT_TRUE((*router)->shard(0)->degraded());

  // Promotion is where a follower becomes a writable pipeline and
  // registers the entry, as a freshly opened primary does.
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kHealthy);
  EXPECT_FALSE((*set)->primary(0)->degraded());
}

// ---------------------------------------------------------------------------
// Coordinated failover: refusals while lost, exactness after promotion
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, LostPrimaryRefusesWritesEpochsAndReshardsNotReads) {
  const std::string source = PaddedNum(0);
  auto graph = RingGraph(24, /*weighted=*/true);
  ShardRouterOptions options = SsspShards(source);
  auto router = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(options.pipeline.spec, graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Follower (0, 0) stops before the last epoch; (0, 1) follows it.
  ASSERT_TRUE((*set)->KillReplica(0, 0).ok());
  ASSERT_TRUE((*set)->AppendBatch(AddShortcut(&graph, 3, 15, "0.5")).ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());
  ASSERT_EQ((*router)->CommittedEpochs(), (std::vector<uint64_t>{1, 1}));

  Pipeline* dead = (*router)->shard(0);
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  EXPECT_TRUE((*router)->primary_lost(0));
  EXPECT_FALSE((*router)->primary_lost(1));

  // Appends routed to shard 0 are refused — a batch touching shard 0 is
  // refused whole — and no shard's log grows.
  std::string key0, key1;
  for (const auto& kv : graph) {
    std::string& slot = (*router)->ShardOf(kv.key) == 0 ? key0 : key1;
    if (slot.empty()) slot = kv.key;
  }
  ASSERT_FALSE(key0.empty());
  ASSERT_FALSE(key1.empty());
  std::vector<uint64_t> last_seq;
  for (int s = 0; s < 2; ++s) {
    last_seq.push_back((*router)->shard(s)->log()->last_seq());
  }
  auto refused = (*set)->Append(DeltaKV{DeltaOp::kInsert, key0, "x:1"});
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("shard 0"), std::string::npos)
      << refused.status().ToString();
  EXPECT_FALSE(
      (*router)->Append(DeltaKV{DeltaOp::kInsert, key0, "x:1"}).ok());
  EXPECT_FALSE((*router)
                   ->AppendBatch({DeltaKV{DeltaOp::kInsert, key1, "x:1"},
                                  DeltaKV{DeltaOp::kInsert, key0, "x:1"}})
                   .ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ((*router)->shard(s)->log()->last_seq(), last_seq[s])
        << "shard " << s << " logged a refused append";
  }

  // Coordinated epochs and reshards are refused, naming the shard.
  auto names_shard0 = [](const Status& st) {
    return !st.ok() && st.ToString().find("shard 0") != std::string::npos;
  };
  EXPECT_TRUE(names_shard0((*router)->RefreshCoordinated().status()));
  EXPECT_TRUE(names_shard0((*router)->DrainAll()));
  ReshardOptions reshard;
  reshard.new_num_shards = 3;
  ReshardCoordinator coordinator(router->get(), reshard);
  EXPECT_TRUE(names_shard0(coordinator.Run().status()));
  EXPECT_EQ((*router)->generation(), 0u);

  // Reads go on from followers, as one uniform cut.
  auto snap = (*set)->PinSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->epochs(), (std::vector<uint64_t>{1, 1}));
  EXPECT_TRUE(snap->Get(key0).ok());

  // The only follower left on shard 0 stopped before the last epoch:
  // promoting it would break the uniform vector, so Promote refuses.
  ASSERT_TRUE((*set)->KillReplica(0, 1).ok());
  ASSERT_TRUE((*set)->RestartReplica(0, 0).ok());
  ASSERT_EQ((*set)->replica(0, 0)->pipeline()->committed_epoch(), 0u);
  auto stale = (*set)->Promote(0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(stale.status().ToString().find("applied epoch 0"),
            std::string::npos)
      << stale.status().ToString();
  EXPECT_TRUE((*set)->primary_dead(0));
  EXPECT_EQ((*router)->shard(0), dead);

  // The caught-up follower promotes, and the fleet takes epochs again.
  ASSERT_TRUE((*set)->RestartReplica(0, 1).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);
  ASSERT_TRUE((*set)->AppendBatch(AddShortcut(&graph, 9, 21, "0.5")).ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
  EXPECT_EQ((*router)->CommittedEpochs(), (std::vector<uint64_t>{2, 2}));
}

// A lost primary is its shard component's state: "serving.<name>.shard0"
// reads kFailed with the reason its refused appends carry, the router and
// the other shard stay healthy, and the promotion returns it to healthy.
TEST_F(ReplicationTest, LostPrimaryFailsItsShardHealthUntilPromotion) {
  auto graph = RingGraph(24, /*weighted=*/true);
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  ShardRouterOptions options = SsspShards(PaddedNum(0));
  options.metrics = &metrics;
  options.health = &health;
  auto router = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(options.pipeline.spec, graph)).ok());
  ReplicaSetOptions ro;
  ro.replicas_per_shard = 1;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());
  EXPECT_EQ(health.state("serving.sp.shard0"), HealthState::kHealthy);

  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  EXPECT_EQ(health.state("serving.sp.shard0"), HealthState::kFailed);
  EXPECT_EQ(health.state("serving.sp.shard1"), HealthState::kHealthy);
  EXPECT_EQ(health.state("serving.sp"), HealthState::kHealthy);
  std::string key0;
  for (const auto& kv : graph) {
    if ((*router)->ShardOf(kv.key) == 0) {
      key0 = kv.key;
      break;
    }
  }
  ASSERT_FALSE(key0.empty());
  auto refused = (*router)->Append(DeltaKV{DeltaOp::kInsert, key0, "x:1"});
  EXPECT_EQ(refused.status().code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(refused.status().message(), health.reason("serving.sp.shard0"));
  EXPECT_TRUE((*router)->Lookup(key0).ok());  // reads go on

  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(health.state("serving.sp.shard0"), HealthState::kHealthy);
  EXPECT_FALSE((*router)->primary_lost(0));
  EXPECT_TRUE((*router)->Append(DeltaKV{DeltaOp::kInsert, key0, "x:1"}).ok());
}

TEST_F(ReplicationTest, PromotedShardOfCoordinatedFleetStaysExact) {
  const std::string source = PaddedNum(0);
  auto graph = RingGraph(24, /*weighted=*/true);
  ShardRouterOptions options = SsspShards(source);
  auto router = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)->Bootstrap(graph, InitStateFor(options.pipeline.spec, graph)).ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->AppendBatch(AddShortcut(&graph, 2, 14, "0.5")).ok());
  ASSERT_TRUE((*set)->DrainAll().ok());
  ASSERT_TRUE((*set)->SyncAll().ok());

  Pipeline* dead = (*router)->shard(0);
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  auto promoted = (*set)->Promote(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  // The router owns the promoted primary.
  EXPECT_NE((*router)->shard(0), dead);
  EXPECT_EQ((*router)->shard(0), (*set)->primary(0));

  // Deltas keep streaming through the promoted shard; epochs commit on
  // both shards under the barrier.
  const std::pair<int, int> shortcuts[] = {{5, 17}, {11, 1}, {20, 8}};
  for (auto [from, to] : shortcuts) {
    ASSERT_TRUE(
        (*set)->AppendBatch(AddShortcut(&graph, from, to, "0.25")).ok());
    ASSERT_TRUE((*set)->DrainAll().ok());
  }
  ASSERT_TRUE((*set)->SyncAll().ok());
  EXPECT_EQ((*router)->CommittedEpochs(), (std::vector<uint64_t>{4, 4}));

  // The router equals Dijkstra exactly, and every follower serves exactly
  // the router's committed state.
  const auto reference = sssp::Reference(graph, source);
  std::vector<KV> served;
  for (int s = 0; s < 2; ++s) {
    auto part = (*router)->shard(s)->ServingSnapshot();
    served.insert(served.end(), part.begin(), part.end());
  }
  EXPECT_EQ(sssp::ErrorRate(served, reference), 0.0);
  for (int s = 0; s < 2; ++s) {
    const auto primary = (*router)->shard(s)->ServingSnapshot();
    for (int i = 0; i < 2; ++i) {
      if (s == 0 && i == *promoted) continue;
      EpochPin pin = (*set)->replica(s, i)->PinServing();
      ASSERT_TRUE(pin.valid()) << "shard " << s << " replica " << i;
      EXPECT_EQ(pin.epoch(), (*router)->shard(s)->committed_epoch());
      EXPECT_EQ(pin.store()->Snapshot(), primary)
          << "shard " << s << " replica " << i;
    }
  }
}

TEST_F(ReplicationTest, AppendsRacingAPromotionAreRefusedOrApplied) {
  const std::string source = PaddedNum(0);
  auto graph = RingGraph(24, /*weighted=*/true);
  ShardRouterOptions options = SsspShards(source);
  auto router = ShardRouter::Open(root_, "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE(
      (*router)
          ->Bootstrap(graph, InitStateFor(options.pipeline.spec, graph))
          .ok());

  ReplicaSetOptions ro;
  ro.replicas_per_shard = 2;
  auto set = ReplicaSet::Open(router->get(), replicas_, ro);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE((*set)->SyncAll().ok());

  // Candidate shortcuts out of shard-0 vertices, skipping the ring edge.
  std::vector<std::pair<int, int>> shortcuts;
  for (int offset = 12; offset >= 2; --offset) {
    for (int from = 0; from < 24; ++from) {
      if ((*router)->ShardOf(PaddedNum(from)) != 0) continue;
      shortcuts.emplace_back(from, (from + offset) % 24);
    }
  }
  ASSERT_FALSE(shortcuts.empty());

  Pipeline* dead = (*router)->shard(0);
  ASSERT_TRUE((*set)->KillPrimary(0).ok());
  const uint64_t dead_last_seq = dead->log()->last_seq();

  // One appender streams shortcuts through the set while shard 0 is
  // promoted. Every batch is refused (the primary is lost) or acked, and
  // an acked batch must reach the promoted primary: none may be logged to
  // the retired one. Only shortcuts that shorten some distance are sent,
  // so each acked batch shows in the result.
  std::atomic<bool> promotion_over{false};
  std::vector<KV> acked_graph = graph;
  int acks = 0, refusals = 0;
  Status refused_after_promotion = Status::OK();
  std::thread appender([&] {
    size_t next = 0;
    while (next < shortcuts.size() && !(promotion_over.load() && acks >= 6)) {
      std::vector<KV> trial = acked_graph;
      auto batch = AddShortcut(&trial, shortcuts[next].first,
                               shortcuts[next].second, "0.5");
      if (sssp::Reference(trial, source) ==
          sssp::Reference(acked_graph, source)) {
        ++next;
        continue;
      }
      const bool after = promotion_over.load();
      Status st = (*set)->AppendBatch(batch);
      if (st.ok()) {
        acked_graph = std::move(trial);
        ++acks;
        ++next;
      } else if (after) {
        refused_after_promotion = st;
        return;
      } else {
        ++refusals;
        std::this_thread::yield();
      }
    }
  });
  auto promoted = (*set)->Promote(0);
  promotion_over.store(true);
  appender.join();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_TRUE(refused_after_promotion.ok())
      << refused_after_promotion.ToString();
  EXPECT_GT(acks, 0);
  EXPECT_EQ(dead->log()->last_seq(), dead_last_seq)
      << "an append acked during the promotion was logged to the retired "
         "primary ("
      << refusals << " refusals, " << acks << " acks)";

  ASSERT_TRUE((*set)->DrainAll().ok());
  EXPECT_EQ(sssp::ErrorRate(ShardedSnapshot(**router),
                            sssp::Reference(acked_graph, source)),
            0.0);
}

}  // namespace
}  // namespace i2mr
