// Tests for the continuous delta-ingestion pipeline subsystem: DeltaLog
// framing + recovery-by-scan, exactly-once epoch commits (crash between
// drain and commit, crash mid-commit, reopen-and-replay), delta ordering
// incl. delete tombstones, pinned committed-epoch reads, and the
// min-batch / max-lag epoch triggers.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/pagerank.h"
#include "common/codec.h"
#include "common/hash.h"
#include "data/graph_gen.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/record_file.h"
#include "mr/cluster.h"
#include "pipeline/delta_log.h"
#include "pipeline/pipeline.h"

namespace i2mr {
namespace {

std::vector<KV> UnitState(const std::vector<KV>& structure) {
  std::vector<KV> state;
  for (const auto& kv : structure) state.push_back(KV{kv.key, "1"});
  return state;
}

PipelineOptions PageRankPipeline() {
  PipelineOptions options;
  options.spec = pagerank::MakeIterSpec("pr", 4, 100, 1e-9);
  options.engine.filter_threshold = 0.0;   // exact propagation
  options.engine.mrbg_auto_off_ratio = 2;  // keep the incremental path on
  return options;
}

// ---------------------------------------------------------------------------
// DeltaLog
// ---------------------------------------------------------------------------

class DeltaLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_delta_log";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }
  std::string dir_;
};

TEST_F(DeltaLogTest, AppendAssignsIncreasingSeqsAndReopenRecovers) {
  {
    auto log = DeltaLog::Open(dir_);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    auto s1 = (*log)->Append(DeltaKV{DeltaOp::kInsert, "a", "1"});
    auto s2 = (*log)->Append(DeltaKV{DeltaOp::kDelete, "b", "2"});
    auto s3 = (*log)->AppendBatch({{DeltaOp::kInsert, "c", "3"},
                                   {DeltaOp::kInsert, "d", "4"}});
    ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
    EXPECT_EQ(*s1, 1u);
    EXPECT_EQ(*s2, 2u);
    EXPECT_EQ(*s3, 4u);  // last seq of the batch
  }
  auto log = DeltaLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->recovery_stats().records, 4u);
  EXPECT_EQ((*log)->recovery_stats().discarded_bytes, 0u);
  EXPECT_EQ((*log)->last_seq(), 4u);

  auto all = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].delta.key, "a");
  EXPECT_EQ(all[1].delta.op, DeltaOp::kDelete);
  EXPECT_EQ(all[3].seq, 4u);

  auto mid = (*log)->ReadRange(1, 3);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].seq, 2u);
  EXPECT_EQ(mid[1].seq, 3u);
}

TEST_F(DeltaLogTest, TornTailIsTruncatedAndAppendsContinue) {
  std::string path;
  {
    auto log = DeltaLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k1", "v1"}).ok());
    ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k2", "v2"}).ok());
    path = (*log)->path();
  }
  // Crash mid-append: the last frame is half-written.
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteStringToFile(path, data->substr(0, data->size() - 5)).ok());

  auto log = DeltaLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->recovery_stats().records, 1u);
  EXPECT_GT((*log)->recovery_stats().discarded_bytes, 0u);
  EXPECT_EQ((*log)->last_seq(), 1u);

  // The log stays usable: the next append lands on a clean boundary and
  // survives another reopen.
  ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k3", "v3"}).ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto all = (*reopened)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].delta.key, "k3");
}

TEST_F(DeltaLogTest, CorruptedPayloadByteIsDetectedByCrc) {
  std::string path;
  {
    auto log = DeltaLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "aa", "bb"}).ok());
    path = (*log)->path();
  }
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string flipped = *data;
  flipped[12] ^= 0x40;  // a payload byte
  ASSERT_TRUE(WriteStringToFile(path, flipped).ok());
  auto log = DeltaLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->recovery_stats().records, 0u);
  EXPECT_GT((*log)->recovery_stats().discarded_bytes, 0u);
}

TEST_F(DeltaLogTest, PurgeThroughDropsConsumedPrefix) {
  auto log = DeltaLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*log)->Append(DeltaKV{DeltaOp::kInsert, std::to_string(i), "v"}).ok());
  }
  ASSERT_TRUE((*log)->PurgeThrough(7).ok());
  EXPECT_EQ((*log)->live_records(), 3u);
  EXPECT_EQ((*log)->last_seq(), 10u);  // sequence numbers never reset
  auto rest = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].seq, 8u);
  // New appends continue the sequence, and the purged file reopens cleanly.
  ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "x", "y"}).ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->last_seq(), 11u);
  EXPECT_EQ((*reopened)->live_records(), 4u);
}

TEST_F(DeltaLogTest, AppendBatchIsAllOrNothingOnOversizedRecord) {
  auto log = DeltaLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "a", "1"}).ok());
  // A record whose framed payload would exceed the reader-side bound must
  // reject the whole batch, durably appending none of it.
  std::string huge(kMaxRecordFieldLen + 1, 'x');
  auto st = (*log)->AppendBatch({{DeltaOp::kInsert, "ok1", "v"},
                                 {DeltaOp::kInsert, huge, "v"},
                                 {DeltaOp::kInsert, "ok2", "v"}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ((*log)->live_records(), 1u);
  EXPECT_EQ((*log)->last_seq(), 1u);
  // Single-record appends enforce the same bound.
  EXPECT_FALSE((*log)->Append(DeltaKV{DeltaOp::kInsert, huge, "v"}).ok());
  EXPECT_EQ((*log)->last_seq(), 1u);
}

// ---------------------------------------------------------------------------
// Segmented log: rotation, purge retirement, archival, boundary crashes
// ---------------------------------------------------------------------------

// ~34-byte frames + a 100-byte threshold → a rotation every 3 records.
DeltaLogOptions SmallSegments(uint64_t segment_bytes = 100) {
  DeltaLogOptions options;
  options.segment_bytes = segment_bytes;
  return options;
}

std::vector<std::string> SegmentFilesIn(const std::string& dir) {
  auto files = ListFiles(dir);
  std::vector<std::string> segs;
  if (!files.ok()) return segs;
  for (const auto& f : *files) {
    if (f.find("/seg-") != std::string::npos &&
        f.compare(f.size() - 4, 4, ".dat") == 0) {
      segs.push_back(f);
    }
  }
  return segs;
}

Status AppendN(DeltaLog* log, int n, int start = 0) {
  for (int i = start; i < start + n; ++i) {
    auto seq = log->Append(DeltaKV{DeltaOp::kInsert, "k" + std::to_string(i), "v"});
    if (!seq.ok()) return seq.status();
  }
  return Status::OK();
}

TEST_F(DeltaLogTest, RotationSealsSegmentsAndRecoveryScansAllInOrder) {
  {
    auto log = DeltaLog::Open(dir_, SmallSegments());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(AppendN(log->get(), 10).ok());
    EXPECT_GE((*log)->segment_files(), 3u);  // rotated at least twice
    ASSERT_TRUE((*log)->Close().ok());
  }
  EXPECT_GE(SegmentFilesIn(dir_).size(), 3u);

  auto log = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records, 10u);
  EXPECT_GE((*log)->recovery_stats().segments, 3u);
  EXPECT_EQ((*log)->recovery_stats().discarded_bytes, 0u);
  EXPECT_EQ((*log)->last_seq(), 10u);
  auto all = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i + 1);

  // Torn tail on the *last* (active) segment only: truncated away, every
  // sealed segment's records survive.
  std::string active = (*log)->path();
  ASSERT_TRUE((*log)->Close().ok());
  auto data = ReadFileToString(active);
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->empty());  // 10 records at 3/segment leave 1 in active
  ASSERT_TRUE(WriteStringToFile(active, data->substr(0, data->size() - 5)).ok());
  auto torn = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ((*torn)->recovery_stats().records, 9u);
  EXPECT_GT((*torn)->recovery_stats().discarded_bytes, 0u);
}

TEST_F(DeltaLogTest, CorruptionInsideSealedSegmentFailsOpen) {
  {
    auto log = DeltaLog::Open(dir_, SmallSegments());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(AppendN(log->get(), 10).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  auto segs = SegmentFilesIn(dir_);
  ASSERT_GE(segs.size(), 3u);
  // Damage in a sealed (non-last) segment is not a torn append: silently
  // truncating it would drop acknowledged records the later segments
  // build on, so the open must fail loudly instead.
  auto data = ReadFileToString(segs.front());
  ASSERT_TRUE(data.ok());
  std::string flipped = *data;
  flipped[12] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(segs.front(), flipped).ok());
  auto log = DeltaLog::Open(dir_, SmallSegments());
  EXPECT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsCorruption());
}

TEST_F(DeltaLogTest, PurgeRetiresWholeSegmentsAndSurvivesReopen) {
  auto log = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(AppendN(log->get(), 10).ok());
  size_t before = SegmentFilesIn(dir_).size();
  ASSERT_GE(before, 3u);

  // seqs 1..6 span the first two sealed segments exactly (3 per segment).
  ASSERT_TRUE((*log)->PurgeThrough(6).ok());
  EXPECT_EQ((*log)->live_records(), 4u);
  EXPECT_EQ((*log)->purge_watermark(), 6u);
  EXPECT_LT(SegmentFilesIn(dir_).size(), before);  // files actually gone
  auto rest = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest.front().seq, 7u);

  // The purge is durable: a reopen must not resurrect consumed records
  // still sitting in a partially consumed segment.
  ASSERT_TRUE((*log)->Close().ok());
  auto reopened = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_records(), 4u);
  EXPECT_EQ((*reopened)->last_seq(), 10u);
  EXPECT_EQ((*reopened)->ReadRange(0, UINT64_MAX).front().seq, 7u);

  // Purging everything retires even the active segment's records; the
  // sequence still never restarts.
  ASSERT_TRUE((*reopened)->PurgeThrough(10).ok());
  EXPECT_EQ((*reopened)->live_records(), 0u);
  auto seq = (*reopened)->Append(DeltaKV{DeltaOp::kInsert, "x", "y"});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 11u);
}

TEST_F(DeltaLogTest, ArchivalMovesConsumedSegmentsInsteadOfUnlinking) {
  DeltaLogOptions options = SmallSegments();
  options.archive_purged = true;
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(AppendN(log->get(), 10).ok());
  ASSERT_TRUE((*log)->PurgeThrough(8).ok());

  auto archived = ListFiles(JoinPath(dir_, "archive"));
  ASSERT_TRUE(archived.ok());
  EXPECT_EQ(archived->size(), 2u);  // segments 1-4 and 5-8, both consumed
  // Archived segments are out of the live log: recovery ignores them.
  ASSERT_TRUE((*log)->Close().ok());
  auto reopened = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_records(), 2u);
  EXPECT_EQ((*reopened)->last_seq(), 10u);
}

TEST_F(DeltaLogTest, CompressedArchiveShipsAndReplaysTransparently) {
  DeltaLogOptions options = SmallSegments();
  options.archive_purged = true;
  options.compress_archive = true;
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(AppendN(log->get(), 10).ok());
  ASSERT_TRUE((*log)->PurgeThrough(8).ok());

  // Retired segments were compacted + compressed into .lzd archives.
  auto archived = ListFiles(JoinPath(dir_, "archive"));
  ASSERT_TRUE(archived.ok());
  ASSERT_EQ(archived->size(), 2u);
  for (const auto& f : *archived) {
    EXPECT_EQ(f.compare(f.size() - 4, 4, ".lzd"), 0) << f;
    EXPECT_TRUE(IsDeltaLogSegmentFile(f)) << f;
    EXPECT_GT(DeltaLogSegmentFirstSeq(f), 0u) << f;
  }
  ASSERT_TRUE((*log)->Close().ok());

  // A follower-style replay dir: shipped .lzd archives sitting in the log
  // dir are scanned transparently; a fresh active segment opens past the
  // compressed tail and the sequence continues.
  std::string replay = dir_ + "_replay";
  ASSERT_TRUE(ResetDir(replay).ok());
  for (const auto& f : *archived) {
    ASSERT_TRUE(
        CopyFile(f, JoinPath(replay, f.substr(f.find_last_of('/') + 1))).ok());
  }
  auto follower = DeltaLog::Open(replay, options);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_EQ((*follower)->recovery_stats().records, 8u);
  EXPECT_EQ((*follower)->last_seq(), 8u);
  auto all = (*follower)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), 8u);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i + 1);
  auto seq = (*follower)->Append(DeltaKV{DeltaOp::kInsert, "x", "y"});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 9u);
  ASSERT_TRUE((*follower)->Close().ok());

  // A corrupted compressed archive is a hard failure, never a silent
  // truncation (only a raw active tail may be torn).
  auto files = ListFiles(replay);
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.size() > 4 && f.compare(f.size() - 4, 4, ".lzd") == 0) victim = f;
  }
  ASSERT_FALSE(victim.empty());
  auto bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string mangled = *bytes;
  mangled[mangled.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(victim, mangled).ok());
  EXPECT_FALSE(DeltaLog::Open(replay, options).ok());
}

TEST_F(DeltaLogTest, MmapRecoveryScanMatchesStreamingAndHandlesTornTail) {
  DeltaLogOptions options = SmallSegments();
  options.mmap_scan_bytes = 1;  // force the mmap path for every segment
  {
    auto log = DeltaLog::Open(dir_, options);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(AppendN(log->get(), 10).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records, 10u);
  auto all = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i + 1);

  // Torn active tail under the mmap scan: the mapping is released before
  // the truncate, the torn frame is discarded, appends continue.
  std::string active = (*log)->path();
  ASSERT_TRUE((*log)->Close().ok());
  auto data = ReadFileToString(active);
  ASSERT_TRUE(data.ok());
  ASSERT_FALSE(data->empty());
  ASSERT_TRUE(WriteStringToFile(active, data->substr(0, data->size() - 5)).ok());
  auto torn = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ((*torn)->recovery_stats().records, 9u);
  EXPECT_GT((*torn)->recovery_stats().discarded_bytes, 0u);
  auto seq = (*torn)->Append(DeltaKV{DeltaOp::kInsert, "x", "y"});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 10u);
}

TEST_F(DeltaLogTest, CrashBetweenSealAndNewSegmentLosesNothing) {
  {
    // 90-byte threshold: the third 32-byte frame crosses it.
    DeltaLogOptions options = SmallSegments(90);
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=crash,path=delta_log/rotate,kind=crash,"
                               "times=-1")
                    .ok());
    auto log = DeltaLog::Open(dir_, options);
    ASSERT_TRUE(log.ok());
    // The third append crosses the threshold; its rotation "dies" after
    // sealing the old active segment, before the new one exists.
    ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k0", "v"}).ok());
    ASSERT_TRUE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k1", "v"}).ok());
    auto third = (*log)->Append(DeltaKV{DeltaOp::kInsert, "k2", "v"});
    EXPECT_FALSE(third.ok());  // simulated crash (the record IS durable)
    // The "dead process" accepts nothing more.
    EXPECT_FALSE((*log)->Append(DeltaKV{DeltaOp::kInsert, "k3", "v"}).ok());
  }
  fault::FaultInjector::Instance()->Reset();
  // Restart: all three acknowledged records recovered, appends continue.
  auto log = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records, 3u);
  EXPECT_EQ((*log)->last_seq(), 3u);
  auto seq = (*log)->Append(DeltaKV{DeltaOp::kInsert, "k3", "v"});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 4u);
}

TEST_F(DeltaLogTest, CrashMidPurgeAfterMarkIsCompletedOnReopen) {
  {
    DeltaLogOptions options = SmallSegments();
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=crash,path=delta_log/purge-marked,"
                               "kind=crash,times=-1")
                    .ok());
    auto log = DeltaLog::Open(dir_, options);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(AppendN(log->get(), 10).ok());
    // Dies after the PURGE mark is durable, before any segment is
    // unlinked: consumed segment files remain on disk.
    EXPECT_FALSE((*log)->PurgeThrough(6).ok());
    EXPECT_EQ((*log)->purge_watermark(), 6u);
  }
  fault::FaultInjector::Instance()->Reset();
  size_t leftover = SegmentFilesIn(dir_).size();
  ASSERT_GE(leftover, 3u);  // nothing was retired before the "crash"

  // Recovery finishes the interrupted purge: consumed segments retired,
  // consumed records not resurrected, exactly-once replay preserved.
  auto log = DeltaLog::Open(dir_, SmallSegments());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_LT(SegmentFilesIn(dir_).size(), leftover);
  EXPECT_EQ((*log)->live_records(), 4u);
  EXPECT_EQ((*log)->ReadRange(0, UINT64_MAX).front().seq, 7u);
  auto seq = (*log)->Append(DeltaKV{DeltaOp::kInsert, "x", "y"});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 11u);
}

TEST_F(DeltaLogTest, PowerFailureModeExercisesFsyncPathEndToEnd) {
  DeltaLogOptions options = SmallSegments();
  options.durability = DurabilityMode::kPowerFailure;
  {
    auto log = DeltaLog::Open(dir_, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(AppendN(log->get(), 7).ok());  // synced appends + rotations
    ASSERT_TRUE((*log)
                    ->AppendBatch({{DeltaOp::kInsert, "b1", "v"},
                                   {DeltaOp::kInsert, "b2", "v"},
                                   {DeltaOp::kInsert, "b3", "v"}})
                    .ok());
    ASSERT_TRUE((*log)->PurgeThrough(6).ok());  // synced PURGE mark
    ASSERT_TRUE((*log)->Close().ok());
  }
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->live_records(), 4u);
  EXPECT_EQ((*log)->last_seq(), 10u);
  EXPECT_EQ((*log)->purge_watermark(), 6u);
}

TEST_F(DeltaLogTest, GroupCommitConcurrentSyncedAppendsAllDurable) {
  DeltaLogOptions options;
  options.segment_bytes = 16 << 10;
  options.durability = DurabilityMode::kPowerFailure;
  const int kThreads = 8, kAppendsPerThread = 25;
  {
    auto log = DeltaLog::Open(dir_, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kAppendsPerThread; ++i) {
          std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
          auto seq = (*log)->Append(DeltaKV{DeltaOp::kInsert, key, "v"});
          if (!seq.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    const uint64_t total = kThreads * kAppendsPerThread;
    EXPECT_EQ((*log)->last_seq(), total);
    EXPECT_EQ((*log)->live_records(), total);
    // The amortization: concurrent synced appenders share leader fsyncs,
    // so the device saw at most one sync per append (and under contention,
    // far fewer) rather than one per appender per record.
    EXPECT_GT((*log)->sync_count(), 0u);
    EXPECT_LE((*log)->sync_count(), total);
    ASSERT_TRUE((*log)->Close().ok());
  }
  // Every acknowledged append survives reopen, with unique increasing seqs.
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  auto all = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kAppendsPerThread));
  std::set<std::string> keys;
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 1);
    keys.insert(all[i].delta.key);
  }
  EXPECT_EQ(keys.size(), all.size());  // no record lost or duplicated
}

TEST_F(DeltaLogTest, GroupCommitKeepsBatchesContiguousAndAtomic) {
  DeltaLogOptions options;
  options.durability = DurabilityMode::kPowerFailure;
  auto log = DeltaLog::Open(dir_, options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const int kThreads = 6, kBatches = 10, kBatchSize = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::string tag = "t" + std::to_string(t) + "b" + std::to_string(b);
        std::vector<DeltaKV> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          batch.push_back(DeltaKV{DeltaOp::kInsert, tag, std::to_string(i)});
        }
        auto seq = (*log)->AppendBatch(batch);
        if (!seq.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // A group-committed batch occupies a contiguous seq range in order: for
  // every batch tag, its records appear back to back with values 0..3.
  auto all = (*log)->ReadRange(0, UINT64_MAX);
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kBatches * kBatchSize));
  for (size_t i = 0; i < all.size(); i += kBatchSize) {
    for (int j = 1; j < kBatchSize; ++j) {
      EXPECT_EQ(all[i + j].delta.key, all[i].delta.key)
          << "batch torn at seq " << all[i + j].seq;
      EXPECT_EQ(all[i + j].delta.value, std::to_string(j));
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline epochs
// ---------------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = ::testing::TempDir() + "/i2mr_pipeline"; }
  void TearDown() override { fault::FaultInjector::Instance()->Reset(); }
  /// Arm one kill-at-point rule on the pipeline's "pipeline/<stage>" crash
  /// points ("after" skips that many earlier hits of the same stage).
  static void CrashAt(const std::string& stage, int after = 0) {
    ASSERT_TRUE(fault::FaultInjector::Instance()
                    ->LoadSpec("op=crash,path=pipeline/" + stage +
                               ",kind=crash,after=" + std::to_string(after))
                    .ok());
  }
  std::string root_;
};

TEST_F(PipelineTest, ThreeDeltaEpochsConvergeToFromScratchPageRank) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 250;
  gen.avg_degree = 5;
  auto graph = GenGraph(gen);

  auto pipeline = Pipeline::Open(&cluster, "pr_epochs", PageRankPipeline());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
  EXPECT_EQ((*pipeline)->committed_epoch(), 0u);

  for (int epoch = 1; epoch <= 3; ++epoch) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.08;
    dopt.insert_fraction = 0.02;
    dopt.delete_fraction = 0.02;
    dopt.seed = 100 + epoch;
    auto delta = GenGraphDelta(gen, dopt, &graph);
    std::vector<DeltaKV> batch(delta.begin(), delta.end());
    ASSERT_TRUE((*pipeline)->AppendBatch(batch).ok());

    auto stats = (*pipeline)->RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->epoch, static_cast<uint64_t>(epoch));
    EXPECT_EQ(stats->deltas_applied, batch.size());
    EXPECT_EQ((*pipeline)->pending(), 0u);
  }

  // Exactly-once across 3 epochs: the served ranks must match a from-scratch
  // computation over the final graph snapshot.
  auto reference = pagerank::Reference(graph, 100, 1e-9);
  auto served = (*pipeline)->ServingSnapshot();
  EXPECT_LT(pagerank::MeanError(served, reference), 1e-3);

  // Point lookups serve exactly the snapshot's values.
  ASSERT_FALSE(served.empty());
  auto rank = (*pipeline)->Lookup(served.front().key);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(*rank, served.front().value);
  EXPECT_TRUE((*pipeline)->Lookup("no-such-vertex").status().IsNotFound());
}

TEST_F(PipelineTest, PinnedEpochSurvivesCommitAndLogPurge) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  PipelineOptions options = PageRankPipeline();
  options.log.segment_bytes = 4 << 10;  // purge really retires segments
  auto pipeline = Pipeline::Open(&cluster, "pr_pin", options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_FALSE((*pipeline)->PinServing().valid());  // before Bootstrap
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());

  EpochPin pin = (*pipeline)->PinServing();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.epoch(), 0u);
  EXPECT_EQ(pin.watermark(), 0u);
  auto epoch0 = (*pipeline)->ServingSnapshot();
  ASSERT_TRUE(FileExists(JoinPath(pin.dir(), "MANIFEST")));

  // A commit lands and PurgeThrough retires consumed segments while the
  // pin is held.
  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.4;
  dopt.seed = 77;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*pipeline)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  auto stats = (*pipeline)->RunEpoch();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ((*pipeline)->committed_epoch(), 1u);
  EXPECT_GT((*pipeline)->log()->purge_watermark(), 0u);

  // The pinned view still serves epoch 0, value for value, and its dir
  // survived the commit's GC.
  for (const auto& kv : epoch0) {
    auto v = pin.Lookup(kv.key);
    ASSERT_TRUE(v.ok()) << kv.key;
    EXPECT_EQ(*v, kv.value);
  }
  EXPECT_TRUE(FileExists(JoinPath(pin.dir(), "MANIFEST")));

  // Current reads moved on; a fresh pin sees the new epoch whole.
  EpochPin fresh = (*pipeline)->PinServing();
  EXPECT_EQ(fresh.epoch(), 1u);
  EXPECT_EQ(fresh.watermark(), (*pipeline)->committed_watermark());

  // Release the old pin: the next commit collects its dir.
  std::string dir0 = pin.dir();
  pin = EpochPin();
  auto delta2 = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*pipeline)
          ->AppendBatch(std::vector<DeltaKV>(delta2.begin(), delta2.end()))
          .ok());
  ASSERT_TRUE((*pipeline)->RunEpoch().ok());
  EXPECT_FALSE(FileExists(JoinPath(dir0, "MANIFEST")));
  // The still-held fresh pin protected ITS dir through that same commit.
  EXPECT_TRUE(FileExists(JoinPath(fresh.dir(), "MANIFEST")));
}

TEST_F(PipelineTest, DeleteTombstonesAndIntraEpochOrdering) {
  LocalCluster cluster(root_, 2);
  // Hand-built graph: 1 -> 2, 2 -> 1, 3 -> 2.
  auto v = [](uint64_t id) { return PaddedNum(id); };
  std::vector<KV> graph = {{v(1), v(2)}, {v(2), v(1)}, {v(3), v(2)}};

  PipelineOptions options = PageRankPipeline();
  options.spec.num_partitions = 2;
  auto pipeline = Pipeline::Open(&cluster, "pr_tomb", options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());

  // Epoch 1: delete vertex 3's record (tombstone) AND update vertex 1's
  // adjacency (delete + insert, order matters) in a single batch.
  std::vector<DeltaKV> batch = {
      {DeltaOp::kDelete, v(3), v(2)},
      {DeltaOp::kDelete, v(1), v(2)},
      {DeltaOp::kInsert, v(1), JoinAdjacency({v(2), v(3)})},
  };
  ASSERT_TRUE((*pipeline)->AppendBatch(batch).ok());
  auto stats = (*pipeline)->RunEpoch();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<KV> final_graph = {{v(1), JoinAdjacency({v(2), v(3)})},
                                 {v(2), v(1)}};
  auto reference = pagerank::Reference(final_graph, 100, 1e-9);
  auto served = (*pipeline)->ServingSnapshot();
  EXPECT_LT(pagerank::MeanError(served, reference), 1e-4);

  // The tombstoned record's edges are really gone: vertex 2 no longer
  // receives 3's contribution (its reference rank reflects only 1's edge).
  auto r2 = (*pipeline)->Lookup(v(2));
  ASSERT_TRUE(r2.ok());
  double got = *ParseDouble(*r2);
  double want = 0;
  for (const auto& kv : reference) {
    if (kv.key == v(2)) want = *ParseDouble(kv.value);
  }
  EXPECT_NEAR(got, want, 1e-4);
}

TEST_F(PipelineTest, CrashBetweenDrainAndCommitReplaysExactlyOnce) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 200;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  // Crash after the refresh ran but before anything committed.
  PipelineOptions options = PageRankPipeline();
  CrashAt("refresh");
  auto pipeline = Pipeline::Open(&cluster, "pr_crash", options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
  auto before = (*pipeline)->ServingSnapshot();

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*pipeline)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());

  auto stats = (*pipeline)->RunEpoch();
  EXPECT_FALSE(stats.ok());  // the simulated crash

  // Nothing committed: watermark, epoch and the served results are intact.
  EXPECT_EQ((*pipeline)->committed_epoch(), 0u);
  EXPECT_EQ((*pipeline)->committed_watermark(), 0u);
  EXPECT_EQ((*pipeline)->pending(), delta.size());
  EXPECT_EQ((*pipeline)->ServingSnapshot(), before);

  // "Process restart": drop the Pipeline object, re-open without the crash
  // hook, and run the epoch. The deltas must apply exactly once — a double
  // apply would duplicate the re-inserted records and skew the ranks.
  pipeline->reset();
  auto reopened = Pipeline::Open(&cluster, "pr_crash", PageRankPipeline());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->bootstrapped());
  EXPECT_EQ((*reopened)->committed_epoch(), 0u);
  EXPECT_EQ((*reopened)->pending(), delta.size());

  auto replay = (*reopened)->RunEpoch();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->epoch, 1u);
  EXPECT_EQ(replay->deltas_applied, delta.size());

  auto reference = pagerank::Reference(graph, 100, 1e-9);
  EXPECT_LT(pagerank::MeanError((*reopened)->ServingSnapshot(), reference),
            1e-3);
}

TEST_F(PipelineTest, CrashMidCommitLeavesPreviousEpochCurrent) {
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  // Crash after the new epoch dir landed but before CURRENT swung to it.
  PipelineOptions options = PageRankPipeline();
  CrashAt("commit", /*after=*/1);  // skip the bootstrap's epoch-0 commit
  auto pipeline = Pipeline::Open(&cluster, "pr_mid", options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*pipeline)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  EXPECT_FALSE((*pipeline)->RunEpoch().ok());

  pipeline->reset();
  auto reopened = Pipeline::Open(&cluster, "pr_mid", PageRankPipeline());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The orphaned epoch-1 dir was garbage collected; still on epoch 0.
  EXPECT_EQ((*reopened)->committed_epoch(), 0u);
  EXPECT_EQ((*reopened)->pending(), delta.size());

  auto replay = (*reopened)->RunEpoch();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  auto reference = pagerank::Reference(graph, 100, 1e-9);
  EXPECT_LT(pagerank::MeanError((*reopened)->ServingSnapshot(), reference),
            1e-3);
}

TEST_F(PipelineTest, PowerFailureModeCrashAfterManifestBeforeCurrentRename) {
  // The hardest commit boundary under kPowerFailure: the epoch dir (with
  // its fsync'd MANIFEST) landed durably, but the process dies before the
  // CURRENT rename. CURRENT still names the previous epoch, so recovery
  // must garbage-collect the orphan and replay the same deltas exactly
  // once — the fsync path is exercised end to end on both runs.
  LocalCluster cluster(root_, 4);
  GraphGenOptions gen;
  gen.num_vertices = 150;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);

  PipelineOptions options = PageRankPipeline();
  options.durability = DurabilityMode::kPowerFailure;
  options.log.segment_bytes = 4 << 10;  // exercise rotation under fsync too
  CrashAt("commit", /*after=*/1);  // skip the bootstrap's epoch-0 commit
  auto pipeline = Pipeline::Open(&cluster, "pr_power", options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());

  GraphDeltaOptions dopt;
  dopt.update_fraction = 0.1;
  auto delta = GenGraphDelta(gen, dopt, &graph);
  ASSERT_TRUE(
      (*pipeline)
          ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
          .ok());
  EXPECT_FALSE((*pipeline)->RunEpoch().ok());

  pipeline->reset();
  PipelineOptions reopened_options = PageRankPipeline();
  reopened_options.durability = DurabilityMode::kPowerFailure;
  reopened_options.log.segment_bytes = 4 << 10;
  auto reopened = Pipeline::Open(&cluster, "pr_power", reopened_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->committed_epoch(), 0u);
  EXPECT_EQ((*reopened)->pending(), delta.size());

  auto replay = (*reopened)->RunEpoch();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->epoch, 1u);
  EXPECT_EQ(replay->deltas_applied, delta.size());
  auto reference = pagerank::Reference(graph, 100, 1e-9);
  EXPECT_LT(pagerank::MeanError((*reopened)->ServingSnapshot(), reference),
            1e-3);
}

TEST_F(PipelineTest, SegmentedLogWithArchivalAcrossEpochsAndRestart) {
  // Epoch commits purge by retiring whole segments into archive/; the
  // hard-linked epoch snapshots stay correct across epochs and a restart.
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  PipelineOptions options = PageRankPipeline();
  options.spec.num_partitions = 2;
  options.log.segment_bytes = 1 << 10;  // many rotations per epoch batch
  options.log.archive_purged = true;

  {
    LocalCluster cluster(root_, 2);
    auto pipeline = Pipeline::Open(&cluster, "pr_seg", options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
    for (int epoch = 1; epoch <= 2; ++epoch) {
      GraphDeltaOptions dopt;
      dopt.update_fraction = 0.2;
      dopt.seed = 40 + epoch;
      auto delta = GenGraphDelta(gen, dopt, &graph);
      ASSERT_TRUE(
          (*pipeline)
              ->AppendBatch(std::vector<DeltaKV>(delta.begin(), delta.end()))
              .ok());
      auto stats = (*pipeline)->RunEpoch();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ((*pipeline)->log()->live_records(), 0u);  // purged
    }
    // The consumed segments were archived, not unlinked.
    auto archived = ListFiles(JoinPath((*pipeline)->log()->dir(), "archive"));
    ASSERT_TRUE(archived.ok());
    EXPECT_GT(archived->size(), 0u);
  }
  {
    LocalCluster cluster(root_, 2, CostModel{}, /*reset=*/false);
    auto pipeline = Pipeline::Open(&cluster, "pr_seg", options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_EQ((*pipeline)->committed_epoch(), 2u);
    auto reference = pagerank::Reference(graph, 100, 1e-9);
    EXPECT_LT(pagerank::MeanError((*pipeline)->ServingSnapshot(), reference),
              1e-3);

    // The epoch MANIFEST has one form, [epoch][watermark][generation][crc],
    // even at generation 0.
    EpochPin pin = (*pipeline)->PinServing();
    auto manifest = FileSize(JoinPath(pin.dir(), "MANIFEST"));
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(*manifest, 28u);
    uint64_t epoch = 0, watermark = 0, generation = 1;
    ASSERT_TRUE(EpochStore::ReadManifest(pin.dir(), &epoch, &watermark,
                                         &generation)
                    .ok());
    EXPECT_EQ(epoch, 2u);
    EXPECT_EQ(generation, 0u);
    // A well-formed 20-byte [epoch][watermark][crc] manifest is not that
    // form: it reads as corruption.
    std::string short_dir = JoinPath(root_, "short-manifest");
    ASSERT_TRUE(ResetDir(short_dir).ok());
    std::string payload;
    PutFixed64(&payload, epoch);
    PutFixed64(&payload, watermark);
    std::string data = payload;
    PutFixed32(&data, Crc32(payload));
    ASSERT_TRUE(WriteStringToFile(JoinPath(short_dir, "MANIFEST"), data).ok());
    EXPECT_TRUE(EpochStore::ReadManifest(short_dir, &epoch, &watermark)
                    .IsCorruption());
  }
}

TEST_F(PipelineTest, SurvivesFullProcessRestartViaClusterReattach) {
  GraphGenOptions gen;
  gen.num_vertices = 120;
  gen.avg_degree = 4;
  auto graph = GenGraph(gen);
  std::vector<DeltaKV> delta;
  {
    LocalCluster cluster(root_, 2);
    PipelineOptions options = PageRankPipeline();
    options.spec.num_partitions = 2;
    auto pipeline = Pipeline::Open(&cluster, "pr_restart", options);
    ASSERT_TRUE(pipeline.ok());
    ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    auto d = GenGraphDelta(gen, dopt, &graph);
    delta.assign(d.begin(), d.end());
    ASSERT_TRUE((*pipeline)->AppendBatch(delta).ok());
    // Process dies with one un-consumed batch in the durable log — and a
    // half-finished job's shuffle spills left in the scratch space.
    ASSERT_TRUE(CreateDirs(JoinPath(root_, "jobs/crashed-job/map-00000")).ok());
    ASSERT_TRUE(WriteStringToFile(
                    JoinPath(root_, "jobs/crashed-job/map-00000/part-00000.dat"),
                    "stale spill")
                    .ok());
  }
  {
    // Re-attach (reset=false keeps the durable root) and finish the work.
    LocalCluster cluster(root_, 2, CostModel{}, /*reset=*/false);
    // Durable state survives; crashed-job scratch must not.
    EXPECT_FALSE(FileExists(JoinPath(root_, "jobs/crashed-job/map-00000/part-00000.dat")));
    PipelineOptions options = PageRankPipeline();
    options.spec.num_partitions = 2;
    auto pipeline = Pipeline::Open(&cluster, "pr_restart", options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_TRUE((*pipeline)->bootstrapped());
    EXPECT_EQ((*pipeline)->pending(), delta.size());
    auto stats = (*pipeline)->RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    auto reference = pagerank::Reference(graph, 100, 1e-9);
    EXPECT_LT(pagerank::MeanError((*pipeline)->ServingSnapshot(), reference),
              1e-3);
  }
}

// A refresh that fails after the engine began patching its resident
// structure (some partitions rewritten, one half-applied in memory) must
// leave nothing behind: the in-process retry restores the committed epoch
// into a fresh engine, and every later epoch matches a twin pipeline that
// never failed, byte for byte. `arm` injects the failure, which the failed
// epoch must report with `expected_error` in its status.
void ExpectFailedRefreshLeavesNoTrace(const std::string& root,
                                      const std::function<void()>& arm,
                                      const std::string& expected_error) {
  GraphGenOptions gen;
  gen.num_vertices = 160;
  gen.avg_degree = 4;
  const auto graph0 = GenGraph(gen);
  auto v = [](uint64_t id) { return PaddedNum(id); };
  // Epoch 1: updates, inserts and deletes, plus an insert deleted again
  // later in the same batch. Epoch 2: a plain update batch.
  std::vector<std::vector<DeltaKV>> batches;
  auto graph = graph0;
  for (int epoch = 1; epoch <= 2; ++epoch) {
    GraphDeltaOptions dopt;
    dopt.update_fraction = 0.1;
    dopt.insert_fraction = epoch == 1 ? 0.03 : 0.0;
    dopt.delete_fraction = epoch == 1 ? 0.03 : 0.0;
    dopt.seed = 300 + epoch;
    batches.push_back(GenGraphDelta(gen, dopt, &graph));
  }
  batches[0].push_back({DeltaOp::kInsert, v(9000), v(1)});
  batches[0].push_back({DeltaOp::kInsert, v(9001), v(2)});
  batches[0].push_back({DeltaOp::kDelete, v(9000), v(1)});

  LocalCluster failed_cluster(root + "_failed", 4);
  LocalCluster twin_cluster(root + "_twin", 4);
  auto failed = Pipeline::Open(&failed_cluster, "pr", PageRankPipeline());
  auto twin = Pipeline::Open(&twin_cluster, "pr", PageRankPipeline());
  ASSERT_TRUE(failed.ok() && twin.ok());
  ASSERT_TRUE((*failed)->Bootstrap(graph0, UnitState(graph0)).ok());
  ASSERT_TRUE((*twin)->Bootstrap(graph0, UnitState(graph0)).ok());

  ASSERT_TRUE((*failed)->AppendBatch(batches[0]).ok());
  arm();
  auto failure = (*failed)->RunEpoch();
  ASSERT_FALSE(failure.ok());
  EXPECT_NE(failure.status().ToString().find(expected_error),
            std::string::npos)
      << failure.status().ToString();
  fault::FaultInjector::Instance()->Reset();
  EXPECT_EQ((*failed)->committed_epoch(), 0u);

  for (size_t e = 0; e < batches.size(); ++e) {
    if (e > 0) {
      ASSERT_TRUE((*failed)->AppendBatch(batches[e]).ok());
    }
    ASSERT_TRUE((*twin)->AppendBatch(batches[e]).ok());
    auto retried = (*failed)->RunEpoch();
    auto clean = (*twin)->RunEpoch();
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(retried->epoch, e + 1);
    EXPECT_EQ(retried->deltas_applied, clean->deltas_applied);
    EXPECT_TRUE((*failed)->ServingSnapshot() == (*twin)->ServingSnapshot())
        << "epoch " << e + 1 << " diverged from the unfailed twin";
  }
}

TEST_F(PipelineTest, FailedStructureRewriteLeavesNoHalfAppliedStructure) {
  // EIO creating partition 1's new structure file: partition 0's delta is
  // already applied and written, partition 1's applied only in memory.
  const std::string path = root_ + "_eio_failed/state/pr/part-001/structure";
  ExpectFailedRefreshLeavesNoTrace(
      root_ + "_eio",
      [&] {
        ASSERT_TRUE(fault::FaultInjector::Instance()
                        ->LoadSpec("op=create,path=" + path + ",kind=eio")
                        .ok());
      },
      "injected EIO on create");
}

TEST_F(PipelineTest, CrashAfterRefreshLeavesNoAppliedStructure) {
  // The refresh ran to completion (structure fully applied and rewritten)
  // before the simulated crash.
  ExpectFailedRefreshLeavesNoTrace(
      root_ + "_crash", [] { CrashAt("refresh"); },
      "simulated crash after refresh");
}

TEST_F(PipelineTest, InProcessRetryAfterCommitStageFailureSucceeds) {
  // Regression: a commit-stage failure leaves the renamed epoch dir behind;
  // the in-process self-heal (restore + replay) must still be able to
  // commit that epoch instead of tripping over the stale dir forever.
  LocalCluster cluster(root_, 2);
  auto v = [](uint64_t id) { return PaddedNum(id); };
  std::vector<KV> graph = {{v(1), v(2)}, {v(2), v(1)}};

  PipelineOptions options = PageRankPipeline();
  options.spec.num_partitions = 2;
  CrashAt("commit", /*after=*/1);  // epoch 1's first commit only
  auto pipeline = Pipeline::Open(&cluster, "pr_retry", options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(3), v(1)}).ok());

  EXPECT_FALSE((*pipeline)->RunEpoch().ok());  // injected mid-commit failure

  auto retry = (*pipeline)->RunEpoch();  // same process, no reopen
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->epoch, 1u);
  EXPECT_EQ(retry->deltas_applied, 1u);
  EXPECT_TRUE((*pipeline)->Lookup(v(3)).ok());
}

TEST_F(PipelineTest, AppendsAfterRestartOfFullyPurgedLogAreNotSkipped) {
  // Regression: once an epoch purges the whole log, a restarted process
  // must not re-issue sequence numbers at or below the committed watermark
  // — those appends would look already-consumed and silently never refresh.
  LocalCluster cluster(root_, 2);
  auto v = [](uint64_t id) { return PaddedNum(id); };
  std::vector<KV> graph = {{v(1), v(2)}, {v(2), v(1)}};
  PipelineOptions options = PageRankPipeline();
  options.spec.num_partitions = 2;

  auto pipeline = Pipeline::Open(&cluster, "pr_purged", options);
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(3), v(1)}).ok());
  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(4), v(1)}).ok());
  ASSERT_TRUE((*pipeline)->RunEpoch().ok());  // commits watermark 2, purges
  ASSERT_EQ((*pipeline)->committed_watermark(), 2u);
  ASSERT_EQ((*pipeline)->log()->live_records(), 0u);

  // Restart: the recovered (empty) log must continue the sequence.
  pipeline->reset();
  auto reopened = Pipeline::Open(&cluster, "pr_purged", options);
  ASSERT_TRUE(reopened.ok());
  auto seq = (*reopened)->Append({DeltaOp::kInsert, v(5), v(1)});
  ASSERT_TRUE(seq.ok());
  EXPECT_GT(*seq, 2u);
  EXPECT_EQ((*reopened)->pending(), 1u);
  auto stats = (*reopened)->RunEpoch();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->deltas_applied, 1u);
  EXPECT_TRUE((*reopened)->Lookup(v(5)).ok());  // the new vertex is served
}

TEST_F(PipelineTest, MinBatchAndMaxLagTriggers) {
  LocalCluster cluster(root_, 2);
  auto v = [](uint64_t id) { return PaddedNum(id); };
  std::vector<KV> graph = {{v(1), v(2)}, {v(2), v(1)}};

  PipelineOptions options = PageRankPipeline();
  options.spec.num_partitions = 2;
  options.min_batch = 3;
  auto pipeline = Pipeline::Open(&cluster, "pr_trigger", options);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_FALSE((*pipeline)->EpochReady());  // not bootstrapped
  ASSERT_TRUE((*pipeline)->Bootstrap(graph, UnitState(graph)).ok());

  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(3), v(1)}).ok());
  EXPECT_FALSE((*pipeline)->EpochReady());  // 1 < min_batch
  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(4), v(1)}).ok());
  ASSERT_TRUE((*pipeline)->Append({DeltaOp::kInsert, v(5), v(1)}).ok());
  EXPECT_TRUE((*pipeline)->EpochReady());  // min_batch reached

  ASSERT_TRUE((*pipeline)->RunEpoch().ok());
  EXPECT_FALSE((*pipeline)->EpochReady());  // drained

  // Lag trigger: one pending delta, tiny max_lag.
  PipelineOptions lag_options = PageRankPipeline();
  lag_options.spec.num_partitions = 2;
  lag_options.min_batch = 1000;
  lag_options.max_lag_ms = 5;
  auto lagged = Pipeline::Open(&cluster, "pr_lag", lag_options);
  ASSERT_TRUE(lagged.ok());
  ASSERT_TRUE((*lagged)->Bootstrap(graph, UnitState(graph)).ok());
  ASSERT_TRUE((*lagged)->Append({DeltaOp::kInsert, v(3), v(1)}).ok());
  EXPECT_FALSE((*lagged)->EpochReady());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE((*lagged)->EpochReady());
}

}  // namespace
}  // namespace i2mr
