// Concurrency stress for the log-structured MRBG store: a writer thread
// merging batches, the background compactor rewriting sealed segments, and
// a snapshot thread cutting epoch images — all over the same store. Run
// under TSan/ASan in CI; the assertions here check logical consistency
// (latest version wins, snapshots are self-consistent), the sanitizers
// check the locking.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "io/env.h"
#include "mrbg/chunk.h"
#include "mrbg/mrbg_store.h"

namespace i2mr {
namespace {

Chunk VersionedChunk(int key, int round) {
  Chunk c;
  c.key = PaddedNum(key);
  c.entries.push_back(ChunkEntry{1, "round" + std::to_string(round)});
  c.entries.push_back(ChunkEntry{2, std::string(64, 'x')});  // bulk
  return c;
}

class MrbgCompactStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_compact_stress";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { RemoveAll(dir_).ok(); }
  std::string dir_;
};

TEST_F(MrbgCompactStressTest, WriterVsBackgroundCompactor) {
  MRBGStoreOptions opts;
  opts.background_compaction = true;
  opts.segment_target_bytes = 4 << 10;  // rotate constantly
  opts.compact_min_wasted_bytes = 0;
  opts.compact_wasted_ratio = 0.1;
  opts.compact_max_segments = 3;
  auto s = MRBGStore::Open(JoinPath(dir_, "store"), opts);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto& store = s.value();

  constexpr int kKeys = 32;
  constexpr int kRounds = 60;
  // The writer interleaves appends, deletes and queries exactly like a
  // refresh: every FinishBatch wakes the compactor, which rewrites sealed
  // segments while the next round runs.
  for (int r = 0; r < kRounds; ++r) {
    std::vector<std::string> keys;
    for (int k = 0; k < kKeys; ++k) keys.push_back(PaddedNum(k));
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < kKeys; ++k) {
      auto c = store->Query(PaddedNum(k));
      if (r == 0 || k % 7 == r % 7) {
        // First sight or this round's delete-then-reinsert victim.
        if (c.ok() && k % 7 == r % 7 && r % 2 == 1) {
          ASSERT_TRUE(store->RemoveChunk(PaddedNum(k)).ok());
          continue;
        }
      } else {
        ASSERT_TRUE(c.ok() || c.status().IsNotFound())
            << c.status().ToString();
      }
      ASSERT_TRUE(store->AppendChunk(VersionedChunk(k, r)).ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
  }
  store->WaitForCompaction();
  EXPECT_GE(store->stats().compaction_passes, 1u);
  // Segment count is bounded by the policy, not by history length.
  EXPECT_LE(store->num_segments(), 8u);

  // Full logical audit after the dust settles.
  ASSERT_TRUE(store->Close().ok());
  auto reopened = MRBGStore::Open(JoinPath(dir_, "store"), opts);
  ASSERT_TRUE(reopened.ok());
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) keys.push_back(PaddedNum(k));
  ASSERT_TRUE(reopened.value()->PrepareQueries(keys).ok());
  for (int k = 0; k < kKeys; ++k) {
    auto c = reopened.value()->Query(PaddedNum(k));
    if (!c.ok()) {
      EXPECT_TRUE(c.status().IsNotFound()) << c.status().ToString();
      continue;
    }
    // Whatever round wrote it last, the chunk must be whole.
    ASSERT_EQ(c->entries.size(), 2u);
    EXPECT_EQ(c->entries[0].v2.rfind("round", 0), 0u);
  }
}

TEST_F(MrbgCompactStressTest, SnapshotsStayConsistentUnderCompaction) {
  MRBGStoreOptions opts;
  opts.background_compaction = true;
  opts.segment_target_bytes = 4 << 10;
  opts.compact_min_wasted_bytes = 0;
  opts.compact_wasted_ratio = 0.1;
  auto s = MRBGStore::Open(JoinPath(dir_, "store"), opts);
  ASSERT_TRUE(s.ok());
  auto& store = s.value();

  std::atomic<bool> done{false};
  std::atomic<int> snapshots_taken{0};
  Status snap_status;
  // Epoch-commit simulator: cut hard-link snapshots as fast as possible
  // while the writer and compactor churn the segment set underneath.
  std::thread snapper([&] {
    int i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::string snap = JoinPath(dir_, "snap" + std::to_string(i++));
      Status st = store->SnapshotInto(snap);
      if (!st.ok()) {
        snap_status = st;
        return;
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kKeys = 24;
  for (int r = 0; r < 40; ++r) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(store->AppendChunk(VersionedChunk(k, r)).ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
  }
  done.store(true);
  snapper.join();
  ASSERT_TRUE(snap_status.ok()) << snap_status.ToString();
  ASSERT_GT(snapshots_taken.load(), 0);
  store->WaitForCompaction();

  // Every snapshot must open clean and serve whole chunks — compaction
  // unlinking a victim segment must never tear an image that linked it.
  for (int i = 0; i < snapshots_taken.load(); ++i) {
    std::string snap = JoinPath(dir_, "snap" + std::to_string(i));
    auto img = MRBGStore::Open(snap);
    ASSERT_TRUE(img.ok()) << "snapshot " << i << ": "
                          << img.status().ToString();
    std::vector<std::string> keys;
    for (int k = 0; k < kKeys; ++k) keys.push_back(PaddedNum(k));
    ASSERT_TRUE(img.value()->PrepareQueries(keys).ok());
    for (int k = 0; k < kKeys; ++k) {
      auto c = img.value()->Query(PaddedNum(k));
      if (!c.ok()) {
        ASSERT_TRUE(c.status().IsNotFound());
        continue;
      }
      ASSERT_EQ(c->entries.size(), 2u) << "snapshot " << i << " key " << k;
    }
    ASSERT_TRUE(img.value()->Close().ok());
  }
  ASSERT_TRUE(store->Close().ok());
}

}  // namespace
}  // namespace i2mr
