// Tests for the fault-injection layer (io/fault_env) and the graceful
// degradation it drives: spec parsing, trigger semantics (fail-once /
// fail-N-times / every-Nth / after-N), ENOSPC vs EIO error shaping, torn
// writes, injected latency, crash points replacing the legacy crash_hook
// lambdas, the HealthRegistry and the per-component Availability state
// (including readers and appenders racing a router's refuse-then-roll-
// forward transition), and the ENOSPC degradation scenarios —
// delta-log append (pipeline enters degraded read-only mode and
// auto-resumes), segment seal (rotation rolls back and the log stays
// usable), epoch stage (old-or-new, never torn) and MRBG compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "common/codec.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/metrics_exporter.h"
#include "common/timer.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/file.h"
#include "mr/cluster.h"
#include "mrbg/mrbg_store.h"
#include "pipeline/delta_log.h"
#include "pipeline/pipeline.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"

namespace i2mr {
namespace {

/// Every test starts and ends with a disarmed injector: a leaked rule
/// would silently fault unrelated tests' I/O.
class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Instance()->Reset();
    ASSERT_FALSE(fault::FaultInjector::Armed());
    dir_ = ::testing::TempDir() + "/i2mr_fault_env";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }

  std::string dir_;
};

TEST_F(FaultEnvTest, DisarmedChecksAreFreeAndSucceed) {
  EXPECT_FALSE(fault::FaultInjector::Armed());
  EXPECT_TRUE(fault::Check(fault::kAppend, "/any/path").ok());
  EXPECT_TRUE(WriteStringToFile(JoinPath(dir_, "f"), "data").ok());
}

TEST_F(FaultEnvTest, SpecParsesRulesAndRejectsGarbage) {
  auto* inj = fault::FaultInjector::Instance();
  ASSERT_TRUE(inj
                  ->LoadSpec("op=append|sync,path=seg-,kind=enospc,after=3,"
                             "times=1;op=rename,kind=eio,every=5,times=-1")
                  .ok());
  EXPECT_TRUE(fault::FaultInjector::Armed());
  inj->Reset();
  EXPECT_FALSE(inj->LoadSpec("op=notanop,kind=eio").ok());
  EXPECT_FALSE(inj->LoadSpec("kind=notakind").ok());
  EXPECT_FALSE(inj->LoadSpec("nonsense").ok());
  EXPECT_FALSE(fault::FaultInjector::Armed());
}

TEST_F(FaultEnvTest, FailOnceThenRecovered) {
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile;
  rule.path_substr = dir_;
  rule.kind = fault::FaultKind::kEIO;
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);

  const std::string path = JoinPath(dir_, "once");
  Status first = WriteStringToFile(path, "x");
  EXPECT_TRUE(first.IsIOError()) << first.ToString();
  EXPECT_TRUE(WriteStringToFile(path, "x").ok());  // rule exhausted
  EXPECT_EQ(fault::FaultInjector::Instance()->injections(), 1u);
}

TEST_F(FaultEnvTest, AfterSkipsAndEveryNthFires) {
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile;
  rule.path_substr = dir_;
  rule.kind = fault::FaultKind::kEIO;
  rule.after = 2;   // skip the first two matching writes
  rule.every = 2;   // then fail every other one
  rule.times = 2;   // at most twice
  fault::FaultInjector::Instance()->AddRule(rule);

  std::vector<bool> ok;
  for (int i = 0; i < 8; ++i) {
    ok.push_back(WriteStringToFile(JoinPath(dir_, "f"), "x").ok());
  }
  // Writes 1,2 skipped (after); eligible writes 3,4,5,6,... fire on the
  // 1st and 3rd eligible (every=2), capped at two firings (times).
  EXPECT_EQ(ok, (std::vector<bool>{true, true, false, true, false, true,
                                   true, true}));
}

TEST_F(FaultEnvTest, EnospcErrorNamesTheConditionAndPath) {
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile;
  rule.path_substr = dir_;
  rule.kind = fault::FaultKind::kENOSPC;
  fault::FaultInjector::Instance()->AddRule(rule);

  Status st = WriteStringToFile(JoinPath(dir_, "full"), "x");
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.ToString().find("no space left"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("full"), std::string::npos);
}

TEST_F(FaultEnvTest, TornWriteLandsAPrefix) {
  fault::FaultRule rule;
  rule.ops = fault::kAppend;
  rule.path_substr = dir_;
  rule.kind = fault::FaultKind::kTorn;
  rule.torn_fraction = 0.5;
  fault::FaultInjector::Instance()->AddRule(rule);

  const std::string path = JoinPath(dir_, "torn");
  auto f = WritableFile::Create(path);
  ASSERT_TRUE(f.ok());
  std::string payload(100, 'a');
  Status st = (*f)->Append(payload);
  EXPECT_TRUE(st.IsIOError());
  ASSERT_TRUE((*f)->Close().ok());

  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  EXPECT_GT(data->size(), 0u);                // something landed...
  EXPECT_LT(data->size(), payload.size());    // ...but not everything
}

TEST_F(FaultEnvTest, LatencyRuleStallsButSucceeds) {
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile;
  rule.path_substr = dir_;
  rule.kind = fault::FaultKind::kLatency;
  rule.latency_ms = 30;
  fault::FaultInjector::Instance()->AddRule(rule);

  WallTimer timer;
  EXPECT_TRUE(WriteStringToFile(JoinPath(dir_, "slow"), "x").ok());
  EXPECT_GE(timer.ElapsedMillis(), 25.0);
}

TEST_F(FaultEnvTest, ChaosSpecRoundTripsAndInjects) {
  auto* inj = fault::FaultInjector::Instance();
  fault::ChaosOptions chaos;
  chaos.seed = 42;
  chaos.p_fail = 1.0;  // every op in scope faults
  chaos.path_substr = dir_;
  inj->StartChaos(chaos);
  EXPECT_TRUE(inj->chaos_running());
  std::string spec = inj->ChaosSpec();
  EXPECT_NE(spec.find("chaos"), std::string::npos);
  EXPECT_NE(spec.find("seed=42"), std::string::npos);

  EXPECT_FALSE(WriteStringToFile(JoinPath(dir_, "f"), "x").ok());
  // Out-of-scope paths are untouched.
  const std::string outside = ::testing::TempDir() + "/i2mr_fault_outside";
  EXPECT_TRUE(WriteStringToFile(outside, "x").ok());
  EXPECT_TRUE(RemoveAll(outside).ok());
  EXPECT_GT(inj->injections(), 0u);
  EXPECT_FALSE(inj->EventLog().empty());

  inj->StopChaos();
  EXPECT_FALSE(inj->chaos_running());
  EXPECT_TRUE(WriteStringToFile(JoinPath(dir_, "f"), "x").ok());
}

TEST_F(FaultEnvTest, CrashPointRuleKillsDeltaLogRotationLikeTheLegacyHook) {
  DeltaLogOptions options;
  options.segment_bytes = 256;  // rotate fast
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok());

  fault::FaultRule rule;
  rule.ops = fault::kCrashPoint;
  rule.path_substr = "delta_log/rotate";
  rule.kind = fault::FaultKind::kCrash;
  fault::FaultInjector::Instance()->AddRule(rule);

  // Append until the crash point fires at a rotation boundary; the log
  // then refuses appends until reopened — exactly the legacy crash_hook
  // contract.
  Status st;
  for (int i = 0; i < 64 && st.ok(); ++i) {
    st = (*log)->Append(DeltaKV{DeltaOp::kInsert, "key" + std::to_string(i),
                                std::string(32, 'v')})
             .status();
  }
  ASSERT_FALSE(st.ok()) << "crash point never fired";
  EXPECT_FALSE(
      (*log)->Append(DeltaKV{DeltaOp::kInsert, "more", "v"}).ok());

  fault::FaultInjector::Instance()->Reset();
  auto reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->last_seq(), 0u);
  EXPECT_TRUE(
      (*reopened)->Append(DeltaKV{DeltaOp::kInsert, "post", "v"}).ok());
}

// ---------------------------------------------------------------------------
// HealthRegistry
// ---------------------------------------------------------------------------

TEST(HealthRegistryTest, ReportsTransitionsAndMirrorsGauges) {
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  EXPECT_TRUE(health.AllHealthy());
  EXPECT_EQ(health.state("pipeline.x"), HealthState::kHealthy);

  health.Report("pipeline.x", HealthState::kDegraded, "disk full");
  EXPECT_FALSE(health.AllHealthy());
  EXPECT_EQ(health.state("pipeline.x"), HealthState::kDegraded);
  EXPECT_EQ(health.reason("pipeline.x"), "disk full");
  EXPECT_EQ(metrics.GetGauge("health.pipeline.x")->value(), 1);

  // Idempotent re-report refreshes the reason without a transition.
  health.Report("pipeline.x", HealthState::kDegraded, "still full");
  auto snap = health.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].transitions, 1u);
  EXPECT_EQ(snap[0].reason, "still full");

  health.Report("pipeline.x", HealthState::kHealthy);
  EXPECT_TRUE(health.AllHealthy());
  EXPECT_EQ(metrics.GetGauge("health.pipeline.x")->value(), 0);
  EXPECT_EQ(health.reason("pipeline.x"), "");

  health.Report("pipeline.x", HealthState::kFailed, "log closed");
  EXPECT_NE(health.ToString().find("failed"), std::string::npos);
  EXPECT_TRUE(health.Remove("pipeline.x"));
  EXPECT_FALSE(health.Remove("pipeline.x"));
  EXPECT_TRUE(health.AllHealthy());
}

// ---------------------------------------------------------------------------
// Availability: one state decides a component's refusals and health entry
// ---------------------------------------------------------------------------

TEST(AvailabilityTest, StateDecidesRefusalsAndTheHealthEntry) {
  using Op = Availability::Op;
  using Refuses = Availability::Refuses;
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  health.Report("c", HealthState::kFailed, "left by a previous incarnation");
  Availability a(&health, "c", &Status::Unavailable);
  EXPECT_EQ(health.state("c"), HealthState::kHealthy);  // starts healthy
  EXPECT_TRUE(a.Check(Op::kWrite).ok());
  EXPECT_TRUE(a.Check(Op::kRead).ok());

  a.Set(HealthState::kDegraded, Refuses::kWrites, "disk full");
  Status write = a.Check(Op::kWrite);
  EXPECT_TRUE(write.IsUnavailable());
  EXPECT_EQ(write.message(), "disk full");
  EXPECT_TRUE(a.Check(Op::kRead).ok());
  EXPECT_EQ(health.state("c"), HealthState::kDegraded);
  EXPECT_EQ(health.reason("c"), "disk full");
  EXPECT_EQ(metrics.GetGauge("health.c")->value(), 1);

  a.Set(HealthState::kFailed, Refuses::kEverything, "gone");
  EXPECT_EQ(a.Check(Op::kRead).message(), "gone");
  EXPECT_EQ(health.state("c"), HealthState::kFailed);
  EXPECT_EQ(health.reason("c"), "gone");

  // Degraded without refusing anything (e.g. backing off a failed epoch).
  a.Set(HealthState::kDegraded, Refuses::kNothing, "backing off");
  EXPECT_TRUE(a.Check(Op::kWrite).ok());
  EXPECT_EQ(health.state("c"), HealthState::kDegraded);

  a.Clear();
  EXPECT_EQ(a.refuses(), Refuses::kNothing);
  EXPECT_EQ(a.reason(), "");
  EXPECT_EQ(health.state("c"), HealthState::kHealthy);
  EXPECT_EQ(metrics.GetGauge("health.c")->value(), 0);
}

// A router's state transition raced by its readers and writers: a real
// I/O failure interrupts a barrier mid-flip (everything refused while the
// decided epoch awaits its roll-forward), then the next coordinated tick
// rolls it forward. No pin is ever served a mixed epoch vector, every
// failed read or append is the router's refusal, and every acked append
// is applied once the fleet drains.
TEST_F(FaultEnvTest, ReadersAndAppendersRacingRefuseThenRollForwardSeeNoMix) {
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  const int n = 16;
  std::vector<KV> graph;
  for (int i = 0; i < n; ++i) {
    graph.push_back(KV{PaddedNum(i), PaddedNum((i + 1) % n) + ":1"});
  }
  ShardRouterOptions options;
  options.num_shards = 2;
  options.workers_per_shard = 2;
  options.metrics = &metrics;
  options.health = &health;
  options.pipeline.spec = sssp::MakeIterSpec("sp", PaddedNum(0), 2, 200);
  options.pipeline.engine.filter_threshold = 0.0;
  std::vector<KV> init;
  for (const auto& kv : graph) {
    init.push_back(KV{kv.key, options.pipeline.spec.init_state(kv.key)});
  }
  auto router = ShardRouter::Open(JoinPath(dir_, "fleet"), "sp", options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ASSERT_TRUE((*router)->Bootstrap(graph, init).ok());
  ASSERT_TRUE((*router)
                  ->Append(DeltaKV{DeltaOp::kInsert, PaddedNum(0),
                                   PaddedNum(5) + ":1"})
                  .ok());

  ShardGroup group(router->get());
  std::atomic<bool> stop{false};
  std::atomic<int> pins{0}, mixed{0}, unexpected{0};
  std::atomic<int64_t> acked{1};
  auto refused = [](const Status& st) {
    return st.code() == Status::Code::kFailedPrecondition;
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      while (!stop.load()) {
        auto snap = group.PinSnapshot();
        if (snap.ok()) {
          pins.fetch_add(1);
          const std::vector<uint64_t>& e = snap->epochs();
          if (std::adjacent_find(e.begin(), e.end(),
                                 std::not_equal_to<uint64_t>()) != e.end()) {
            mixed.fetch_add(1);
          }
        } else if (!refused(snap.status())) {
          unexpected.fetch_add(1);
        }
        auto v = (*router)->Lookup(PaddedNum(r));
        if (!v.ok() && !refused(v.status())) unexpected.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 1; !stop.load(); ++i) {
      auto seq = (*router)->Append(DeltaKV{
          DeltaOp::kInsert, PaddedNum(i % n), PaddedNum((i + 3) % n) + ":2"});
      if (seq.ok()) {
        acked.fetch_add(1);
      } else if (!refused(seq.status())) {
        unexpected.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Shard 0's flip (CURRENT write + rename) lands and shard 1's CURRENT
  // write fails: the shards' committed epochs differ until the roll-
  // forward, and the decided epoch (barrier record durable) rolls forward
  // on the next tick.
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile | fault::kRename;
  rule.path_substr = "CURRENT";
  rule.kind = fault::FaultKind::kEIO;
  rule.after = 2;
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);
  auto failed = (*router)->RefreshCoordinated();
  EXPECT_FALSE(failed.ok());
  EXPECT_NE((*router)->shard(0)->committed_epoch(),
            (*router)->shard(1)->committed_epoch());
  EXPECT_TRUE((*router)->poisoned());
  EXPECT_EQ(health.state("serving.sp"), HealthState::kDegraded);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  fault::FaultInjector::Instance()->Reset();
  auto resumed = (*router)->RefreshCoordinated();
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE((*router)->poisoned());
  EXPECT_EQ(health.state("serving.sp"), HealthState::kHealthy);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& t : threads) t.join();

  ASSERT_TRUE((*router)->DrainAll().ok());
  EXPECT_EQ((*router)->TotalPending(), 0u);
  EXPECT_GT(pins.load(), 0);
  EXPECT_EQ(mixed.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(metrics.Get("serving.sp.router.deltas_routed")->value(),
            acked.load());
}

// ---------------------------------------------------------------------------
// ENOSPC degradation scenarios
// ---------------------------------------------------------------------------

std::vector<KV> SmallRing(int n) {
  std::vector<KV> graph;
  for (int i = 0; i < n; ++i) {
    graph.push_back(KV{"v" + std::to_string(i),
                       "v" + std::to_string((i + 1) % n)});
  }
  return graph;
}

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

class FaultDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Instance()->Reset();
    root_ = ::testing::TempDir() + "/i2mr_fault_degrade";
    ASSERT_TRUE(ResetDir(root_).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }

  PipelineOptions MakeOptions(HealthRegistry* health) {
    PipelineOptions options;
    options.spec = pagerank::MakeIterSpec("pr", 2, 50, 1e-9);
    options.engine.filter_threshold = 0.0;
    options.engine.mrbg_auto_off_ratio = 2;
    options.health = health;
    options.append_retries = 1;
    options.append_retry_backoff_ms = 0.5;
    options.degraded_probe_interval_ms = 20;
    return options;
  }

  std::string root_;
};

TEST_F(FaultDegradationTest,
       EnospcOnAppendEntersDegradedReadOnlyModeAndAutoResumes) {
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  LocalCluster cluster(root_, 2);
  auto p = Pipeline::Open(&cluster, "pr", MakeOptions(&health));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  Pipeline* pipeline = p->get();

  auto graph = SmallRing(8);
  ASSERT_TRUE(pipeline->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE(
      pipeline->Append(DeltaKV{DeltaOp::kInsert, "v0", "v1"}).ok());
  EXPECT_FALSE(pipeline->degraded());

  // The disk fills: every delta-log append fails with ENOSPC.
  fault::FaultRule rule;
  rule.ops = fault::kAppend;
  rule.path_substr = root_;
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);

  auto failed = pipeline->Append(DeltaKV{DeltaOp::kInsert, "v1", "v2"});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_TRUE(pipeline->degraded());
  EXPECT_NE(pipeline->degraded_reason().find("no space left"),
            std::string::npos);
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kDegraded);

  // Degraded is read-only, not down: reads keep serving, and appends
  // bounce with Unavailable (except the elected probe) instead of
  // hammering the sick disk.
  EXPECT_TRUE(pipeline->Lookup("v0").ok());
  bool saw_unavailable = false;
  for (int i = 0; i < 5 && !saw_unavailable; ++i) {
    auto bounced = pipeline->Append(DeltaKV{DeltaOp::kInsert, "v2", "v3"});
    if (!bounced.ok() && bounced.status().IsUnavailable()) {
      saw_unavailable = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);

  // Space returns: the next probe write succeeds and the pipeline exits
  // degraded mode on its own.
  fault::FaultInjector::Instance()->Reset();
  Status resumed;
  for (int i = 0; i < 100; ++i) {
    resumed =
        pipeline->Append(DeltaKV{DeltaOp::kInsert, "v1", "v2"}).status();
    if (resumed.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(resumed.ok()) << resumed.ToString();
  EXPECT_FALSE(pipeline->degraded());
  EXPECT_EQ(health.state("pipeline.pr"), HealthState::kHealthy);

  // The backlog drains normally once healthy.
  ASSERT_TRUE(pipeline->RunEpoch().ok());
  EXPECT_EQ(pipeline->pending(), 0u);
}

TEST_F(FaultDegradationTest, EnospcOnSegmentSealRollsBackAndLogStaysUsable) {
  const std::string dir = JoinPath(root_, "log");
  DeltaLogOptions options;
  options.segment_bytes = 256;
  auto log = DeltaLog::Open(dir, options);
  ASSERT_TRUE(log.ok());

  // The new segment's creation fails once at the rotation boundary.
  fault::FaultRule rule;
  rule.ops = fault::kOpenWrite;
  rule.path_substr = "seg-";
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);

  // Rotation runs after the batch is durable, so the failed seal is
  // absorbed: every append still succeeds, the un-seal rollback reopens
  // the old active segment, and the next rotation (rule exhausted) seals
  // it normally.
  for (int i = 0; i < 64; ++i) {
    auto seq = (*log)->Append(DeltaKV{DeltaOp::kInsert,
                                      "key" + std::to_string(i),
                                      std::string(32, 'v')});
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  }
  EXPECT_EQ((*log)->last_seq(), 64u);
  EXPECT_EQ(fault::FaultInjector::Instance()->injections(), 1u);
  EXPECT_GT((*log)->segment_files(), 1u);  // later rotations succeeded

  // Reopen: old-or-new state, never torn.
  ASSERT_TRUE((*log)->Close().ok());
  auto reopened = DeltaLog::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().records, 64u);
  EXPECT_EQ((*reopened)->recovery_stats().discarded_bytes, 0u);
}

TEST_F(FaultDegradationTest, EnospcDuringEpochStageLeavesOldEpochServing) {
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  LocalCluster cluster(root_, 2);
  auto p = Pipeline::Open(&cluster, "pr", MakeOptions(&health));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  Pipeline* pipeline = p->get();

  auto graph = SmallRing(8);
  ASSERT_TRUE(pipeline->Bootstrap(graph, UnitState(graph)).ok());
  const uint64_t epoch0 = pipeline->committed_epoch();
  auto before = pipeline->Lookup("v3");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(
      pipeline->Append(DeltaKV{DeltaOp::kInsert, "v3", "v5"}).ok());

  // Everything the epoch commit writes under the pipeline's epoch dirs
  // fails: the stage must abort cleanly, leaving epoch0 serving.
  fault::FaultRule rule;
  rule.ops = fault::kWriteFile | fault::kRename | fault::kOpenWrite |
             fault::kLink;
  rule.path_substr = "epoch-";
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);

  auto stats = pipeline->RunEpoch();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(pipeline->committed_epoch(), epoch0);
  auto still = pipeline->Lookup("v3");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(*still, *before);  // old state, not torn

  // Space returns: the retried epoch commits the staged change.
  fault::FaultInjector::Instance()->Reset();
  auto retried = pipeline->RunEpoch();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GT(pipeline->committed_epoch(), epoch0);
  EXPECT_EQ(pipeline->pending(), 0u);
}

TEST_F(FaultDegradationTest, EnospcDuringMrbgCompactionKeepsStoreServing) {
  const std::string dir = JoinPath(root_, "mrbg");
  ASSERT_TRUE(CreateDirs(dir).ok());
  auto store = MRBGStore::Open(dir);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 16; ++k) {
      Chunk c;
      c.key = "key" + std::to_string(k);
      c.entries.push_back(ChunkEntry{100, "round" + std::to_string(round)});
      ASSERT_TRUE((*store)->AppendChunk(c).ok());
    }
    ASSERT_TRUE((*store)->FinishBatch().ok());
  }

  fault::FaultRule rule;
  rule.ops = fault::kAllIO;
  rule.path_substr = dir;
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);

  EXPECT_FALSE((*store)->Compact().ok());

  // The failed rewrite left the pre-compaction files intact.
  fault::FaultInjector::Instance()->Reset();
  ASSERT_TRUE((*store)->PrepareQueries({"key3"}).ok());
  auto c = (*store)->Query("key3");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->entries[0].v2, "round3");  // latest round survived

  // And the retried compaction succeeds.
  ASSERT_TRUE((*store)->Compact().ok());
  auto again = (*store)->Query("key3");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->entries[0].v2, "round3");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST_F(FaultDegradationTest, MetricsExporterToleratesWriteFaults) {
  MetricsRegistry metrics;
  HealthRegistry health(&metrics);
  metrics.Get("some.counter")->Add(3);

  MetricsExporterOptions options;
  options.path = JoinPath(root_, "metrics.prom");
  options.registry = &metrics;
  options.health = &health;
  MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.WriteOnce().ok());
  auto first = ReadFileToString(options.path);
  ASSERT_TRUE(first.ok());

  fault::FaultRule rule;
  rule.ops = fault::kWriteFile | fault::kRename;
  rule.path_substr = options.path;
  rule.kind = fault::FaultKind::kENOSPC;
  rule.times = -1;
  fault::FaultInjector::Instance()->AddRule(rule);

  metrics.Get("some.counter")->Add(1);
  EXPECT_FALSE(exporter.WriteOnce().ok());
  // tmp+rename means the exposition file keeps its last complete contents.
  auto after = ReadFileToString(options.path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first);

  fault::FaultInjector::Instance()->Reset();
  EXPECT_TRUE(exporter.WriteOnce().ok());
  auto recovered = ReadFileToString(options.path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_NE(*recovered, *first);
}

}  // namespace
}  // namespace i2mr
