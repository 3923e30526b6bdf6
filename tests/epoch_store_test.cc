// Tests for the committed-epoch store and the small-record helpers it
// shares with the other durable records: pins keep superseded epoch dirs
// alive through Collect, Collect removes everything else but CURRENT's
// epoch, PreviousEpoch skips slots, a flip survives reopen, damaged
// records read as Corruption, and every crash point of the one commit
// primitive (ReplaceFileDurably, and the CURRENT flip built on it) recovers
// the old record or the new one. Runs in the TSan matrix: readers pin and
// unpin while a writer flips and collects.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "common/codec.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "mr/cluster.h"
#include "pipeline/epoch_store.h"
#include "pipeline/pipeline.h"

namespace i2mr {
namespace {

class EpochStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_epoch_store";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }

  /// Fill, stamp and seal epoch-<e> (no CURRENT flip).
  static void Seal(EpochStore* store, uint64_t e, uint64_t watermark,
                   uint64_t generation = 0) {
    ASSERT_TRUE(store->OpenSlot(e).ok());
    ASSERT_TRUE(store->WriteManifest(e, watermark, generation).ok());
    ASSERT_TRUE(store->Seal(e).ok());
  }

  /// Seal, flip and publish epoch-<e>, whose store maps "k" to e.
  static void Commit(EpochStore* store, uint64_t e) {
    Seal(store, e, e * 10);
    ASSERT_TRUE(store->Flip(e).ok());
    auto result =
        ResultStore::Open(JoinPath(store->EpochDir(e), "serving.dat"));
    ASSERT_TRUE(result.ok());
    result->Put("k", std::to_string(e));
    store->Publish(e, e * 10,
                   std::make_shared<const ResultStore>(std::move(*result)));
  }

  std::string dir_;
};

TEST_F(EpochStoreTest, PinnedSupersededDirSurvivesCollectUntilLastPinDrops) {
  EpochStore store(dir_, /*sync=*/false);
  EXPECT_FALSE(store.Pin().valid());  // nothing published yet
  Commit(&store, 1);
  EpochPin pin = store.Pin();
  ASSERT_TRUE(pin.valid());
  EpochPin copy = pin;
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_EQ(pin.watermark(), 10u);
  EXPECT_EQ(pin.dir(), store.EpochDir(1));
  EXPECT_EQ(*pin.Lookup("k"), "1");

  Commit(&store, 2);
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_TRUE(FileExists(store.EpochDir(1)));
  pin = EpochPin();
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_TRUE(FileExists(store.EpochDir(1))) << "one copy still holds it";
  EXPECT_EQ(*copy.Lookup("k"), "1");  // the frozen view, not the new one
  copy = EpochPin();
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_FALSE(FileExists(store.EpochDir(1)));
  EXPECT_TRUE(FileExists(store.EpochDir(2)));
}

TEST_F(EpochStoreTest, CollectRemovesSupersededDirsAndSlotsNeverCurrent) {
  EpochStore store(dir_, /*sync=*/false);
  // Nothing committed: every epoch dir and slot is an orphan.
  Seal(&store, 1, 10);
  ASSERT_TRUE(store.OpenSlot(2).ok());
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_FALSE(FileExists(store.EpochDir(1)));
  EXPECT_FALSE(FileExists(store.SlotDir(2)));

  Commit(&store, 3);
  Commit(&store, 4);
  Seal(&store, 5, 50);  // sealed, never flipped
  ASSERT_TRUE(store.OpenSlot(6).ok());
  ASSERT_TRUE(CreateDirs(JoinPath(dir_, "log")).ok());
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_FALSE(FileExists(store.EpochDir(3)));
  EXPECT_TRUE(FileExists(store.EpochDir(4)));
  EXPECT_FALSE(FileExists(store.EpochDir(5)));
  EXPECT_FALSE(FileExists(store.SlotDir(6)));
  EXPECT_TRUE(FileExists(JoinPath(dir_, "log")));  // not an epoch dir
}

TEST_F(EpochStoreTest, PreviousEpochSkipsSlotsAndReturnsTheLargestBelow) {
  EpochStore store(dir_, /*sync=*/false);
  EXPECT_TRUE(store.PreviousEpoch(9).status().IsNotFound());
  Seal(&store, 1, 10);
  Seal(&store, 3, 30);
  ASSERT_TRUE(store.OpenSlot(2).ok());
  ASSERT_TRUE(store.OpenSlot(5).ok());
  EXPECT_EQ(*store.PreviousEpoch(9), 3u);
  EXPECT_EQ(*store.PreviousEpoch(3), 1u);
  EXPECT_TRUE(store.PreviousEpoch(1).status().IsNotFound());
}

TEST_F(EpochStoreTest, FlipSurvivesReopenAndRecoverReadsItsManifest) {
  {
    EpochStore store(dir_, /*sync=*/true);
    auto none = store.Recover();
    ASSERT_TRUE(none.ok());
    EXPECT_FALSE(none->has_value());
    Seal(&store, 7, 70, /*generation=*/3);
    Seal(&store, 8, 80, /*generation=*/3);
    ASSERT_TRUE(store.Flip(7).ok());
  }
  EpochStore reopened(dir_, /*sync=*/true);
  auto committed = reopened.Recover();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  ASSERT_TRUE(committed->has_value());
  EXPECT_EQ((*committed)->epoch, 7u);
  EXPECT_EQ((*committed)->watermark, 70u);
  EXPECT_EQ((*committed)->generation, 3u);
  // Recover names the current epoch for Collect: the unflipped 8 goes.
  ASSERT_TRUE(reopened.Collect().ok());
  EXPECT_TRUE(FileExists(reopened.EpochDir(7)));
  EXPECT_FALSE(FileExists(reopened.EpochDir(8)));

  ASSERT_TRUE(reopened.Unflip().ok());
  auto after = reopened.Recover();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->has_value());
}

TEST_F(EpochStoreTest, WrongSizeOrBadCrcRecordIsCorruption) {
  std::string payload;
  PutFixed64(&payload, 42);
  const std::string record = EncodeCrcRecord(payload);
  ASSERT_EQ(record.size(), 12u);
  auto good = DecodeCrcRecord(record, 8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(DecodeFixed64(good->data()), 42u);
  EXPECT_TRUE(DecodeCrcRecord(record, 12).status().IsCorruption());
  EXPECT_TRUE(
      DecodeCrcRecord(record.substr(0, 11), 8).status().IsCorruption());
  std::string flipped = record;
  flipped[3] ^= 0x01;
  EXPECT_TRUE(DecodeCrcRecord(flipped, 8).status().IsCorruption());

  // A damaged MANIFEST fails both the direct read and recovery.
  EpochStore store(dir_, /*sync=*/false);
  Seal(&store, 1, 10);
  ASSERT_TRUE(store.Flip(1).ok());
  const std::string manifest = JoinPath(store.EpochDir(1), "MANIFEST");
  auto bytes = ReadFileToString(manifest);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), 28u);
  (*bytes)[9] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(manifest, *bytes).ok());
  uint64_t epoch = 0, watermark = 0;
  EXPECT_TRUE(EpochStore::ReadManifest(store.EpochDir(1), &epoch, &watermark)
                  .IsCorruption());
  EXPECT_TRUE(store.Recover().status().IsCorruption());
}

TEST_F(EpochStoreTest, ReadersPinWhileAWriterFlipsAndCollects) {
  EpochStore store(dir_, /*sync=*/false);
  Commit(&store, 1);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0}, pins{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        EpochPin pin = store.Pin();
        // One publication: the store matches the epoch, and the pinned dir
        // is on disk for as long as the pin lives.
        auto v = pin.Lookup("k");
        if (!v.ok() || *v != std::to_string(pin.epoch()) ||
            pin.watermark() != pin.epoch() * 10 || !FileExists(pin.dir())) {
          bad.fetch_add(1);
        }
        pins.fetch_add(1);
      }
    });
  }
  for (uint64_t e = 2; e <= 40; ++e) {
    Commit(&store, e);
    EXPECT_TRUE(store.Collect().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(pins.load(), 0);
  EXPECT_EQ(bad.load(), 0);
  // Every pin is gone: one more Collect leaves the current epoch alone.
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_FALSE(store.PreviousEpoch(40).ok());
  EXPECT_TRUE(FileExists(store.EpochDir(40)));
}

// ---------------------------------------------------------------------------
// Crash points of the commit primitive: enumerate its I/O ops with the
// injector's event log, then fail each one (EIO, then a torn write). The
// record read back is always the old one or the new one.
// ---------------------------------------------------------------------------

/// Number of I/O ops `fn` issues under `dir`, from the injector's event
/// log (a zero-latency rule records every matching op).
template <typename Fn>
size_t CountIoOps(const std::string& dir, Fn fn) {
  auto* injector = fault::FaultInjector::Instance();
  injector->Reset();
  fault::FaultRule count;
  count.path_substr = dir;
  count.kind = fault::FaultKind::kLatency;
  count.times = -1;
  injector->AddRule(count);
  fn();
  size_t n = injector->EventLog().size();
  injector->Reset();
  return n;
}

/// Arm one fault of `kind` at the k-th I/O op under `dir`.
void FailOpAt(const std::string& dir, fault::FaultKind kind, size_t k) {
  fault::FaultRule rule;
  rule.path_substr = dir;
  rule.kind = kind;
  rule.after = k;
  rule.times = 1;
  fault::FaultInjector::Instance()->AddRule(rule);
}

TEST_F(EpochStoreTest, EveryCrashPointOfReplaceFileDurablyKeepsOldOrNew) {
  const std::string path = JoinPath(dir_, "RECORD");
  auto record = [](uint64_t v) {
    std::string payload;
    PutFixed64(&payload, v);
    return EncodeCrcRecord(payload);
  };
  const size_t n = CountIoOps(dir_, [&] {
    ASSERT_TRUE(ReplaceFileDurably(path, record(2), /*sync=*/true).ok());
  });
  ASSERT_EQ(n, 3u);  // write <path>.tmp, rename, fsync the dir
  std::set<uint64_t> outcomes;
  for (auto kind : {fault::FaultKind::kEIO, fault::FaultKind::kTorn}) {
    for (size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(ReplaceFileDurably(path, record(1), /*sync=*/true).ok());
      FailOpAt(dir_, kind, k);
      EXPECT_FALSE(ReplaceFileDurably(path, record(2), /*sync=*/true).ok());
      fault::FaultInjector::Instance()->Reset();
      auto data = ReadFileToString(path);
      ASSERT_TRUE(data.ok()) << "op " << k << ": " << data.status().ToString();
      auto payload = DecodeCrcRecord(*data, 8);
      ASSERT_TRUE(payload.ok()) << "op " << k << ": "
                                << payload.status().ToString();
      uint64_t v = DecodeFixed64(payload->data());
      EXPECT_TRUE(v == 1 || v == 2) << "op " << k << " read " << v;
      outcomes.insert(v);
    }
  }
  EXPECT_EQ(outcomes, (std::set<uint64_t>{1, 2}));
}

TEST_F(EpochStoreTest, EveryCrashPointOfAFlipRecoversOldOrNewEpoch) {
  {
    EpochStore store(dir_, /*sync=*/true);
    Seal(&store, 1, 10);
    Seal(&store, 2, 20);
  }
  auto flip = [&](uint64_t e) {
    EpochStore store(dir_, /*sync=*/true);
    return store.Flip(e);
  };
  const size_t n = CountIoOps(dir_, [&] { ASSERT_TRUE(flip(2).ok()); });
  ASSERT_EQ(n, 3u);
  std::set<uint64_t> outcomes;
  for (auto kind : {fault::FaultKind::kEIO, fault::FaultKind::kTorn}) {
    for (size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(flip(1).ok());
      FailOpAt(dir_, kind, k);
      EXPECT_FALSE(flip(2).ok());
      fault::FaultInjector::Instance()->Reset();
      EpochStore reopened(dir_, /*sync=*/true);
      auto committed = reopened.Recover();
      ASSERT_TRUE(committed.ok()) << "op " << k << ": "
                                  << committed.status().ToString();
      ASSERT_TRUE(committed->has_value()) << "op " << k << ": CURRENT lost";
      uint64_t e = (*committed)->epoch;
      EXPECT_TRUE(e == 1 || e == 2) << "op " << k << " recovered " << e;
      EXPECT_EQ((*committed)->watermark, e * 10);
      outcomes.insert(e);
    }
  }
  EXPECT_EQ(outcomes, (std::set<uint64_t>{1, 2}));
}

TEST_F(EpochStoreTest, AFlipWhoseDirSyncFailsStillNamesTheNewEpoch) {
  EpochStore store(dir_, /*sync=*/true);
  Seal(&store, 1, 10);
  Seal(&store, 2, 20);
  ASSERT_TRUE(store.Flip(1).ok());
  fault::FaultRule rule;
  rule.ops = fault::kSyncDir;
  rule.path_substr = dir_;
  fault::FaultInjector::Instance()->AddRule(rule);
  EXPECT_FALSE(store.Flip(2).ok());  // renamed, then the dir fsync failed
  fault::FaultInjector::Instance()->Reset();
  EXPECT_EQ(store.current(), std::optional<uint64_t>(2));
  ASSERT_TRUE(store.Collect().ok());
  EXPECT_TRUE(FileExists(store.EpochDir(2)));
  EXPECT_FALSE(FileExists(store.EpochDir(1)));
}

// A commit whose CURRENT rename landed but whose directory fsync failed is
// committed: the pipeline publishes it (and reports the error) instead of
// re-staging the same epoch over the dir CURRENT names.
TEST_F(EpochStoreTest, PipelineCommitWithAFailedFlipSyncIsPublished) {
  GraphGenOptions gen;
  gen.num_vertices = 60;
  gen.avg_degree = 3;
  auto graph = GenGraph(gen);
  std::vector<KV> ranks;
  for (const auto& kv : graph) ranks.push_back(KV{kv.key, "1"});
  PipelineOptions options;
  options.spec = pagerank::MakeIterSpec("pr", 2);
  options.durability = DurabilityMode::kPowerFailure;
  const std::string pdir = JoinPath(dir_, "pipeline/pr");
  auto* injector = fault::FaultInjector::Instance();
  {
    LocalCluster cluster(dir_, 2);
    auto pipeline = Pipeline::Open(&cluster, "pr", options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    Pipeline* p = pipeline->get();
    ASSERT_TRUE(p->Bootstrap(graph, ranks).ok());
    auto append = [&](int i) {
      ASSERT_TRUE(
          p->Append(DeltaKV{DeltaOp::kInsert, graph[i].key, graph[i + 1].key})
              .ok());
    };
    // One clean epoch, counting its dir fsyncs of the pipeline dir itself:
    // the slot's seal comes first, then the CURRENT flip.
    append(0);
    fault::FaultRule count;
    count.ops = fault::kSyncDir;
    count.path_substr = pdir;
    count.kind = fault::FaultKind::kLatency;
    count.times = -1;
    injector->AddRule(count);
    ASSERT_TRUE(p->RunEpoch().ok());
    std::vector<size_t> own;
    const std::vector<std::string> events = injector->EventLog();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i] == "latency syncdir " + pdir) own.push_back(i);
    }
    injector->Reset();
    ASSERT_EQ(own.size(), 2u);

    append(2);
    fault::FaultRule rule;
    rule.ops = fault::kSyncDir;
    rule.path_substr = pdir;
    rule.after = own[1];
    injector->AddRule(rule);
    EXPECT_FALSE(p->RunEpoch().ok());
    injector->Reset();
    EXPECT_EQ(p->committed_epoch(), 2u);
    auto current = ReadFileToString(JoinPath(pdir, "CURRENT"));
    ASSERT_TRUE(current.ok());
    EXPECT_EQ(*current, EpochStore::EpochDirName(2));
    // The retry finds nothing left to apply; the committed dir stays.
    auto retry = p->RunEpoch();
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(retry->deltas_applied, 0u);
    EXPECT_TRUE(FileExists(JoinPath(pdir, *current)));
  }
  LocalCluster cluster(dir_, 2, CostModel{}, /*reset=*/false);
  auto reopened = Pipeline::Open(&cluster, "pr", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->committed_epoch(), 2u);
}

}  // namespace
}  // namespace i2mr
