// Tests for the MRBG-Store: chunk codec, chunk index, append/batch
// behaviour, the four read modes, merge semantics, and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/random.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "mrbg/chunk.h"
#include "mrbg/chunk_index.h"
#include "mrbg/mrbg_store.h"

namespace i2mr {
namespace {

Chunk MakeChunk(const std::string& key, int n_entries, uint64_t mk_base = 100,
                const std::string& v_prefix = "v") {
  Chunk c;
  c.key = key;
  for (int i = 0; i < n_entries; ++i) {
    c.entries.push_back(ChunkEntry{mk_base + i, v_prefix + std::to_string(i)});
  }
  return c;
}

// ---------------------------------------------------------------------------
// Chunk codec
// ---------------------------------------------------------------------------

TEST(ChunkCodecTest, RoundTrip) {
  Chunk c = MakeChunk("vertex42", 3);
  std::string buf;
  uint32_t len = EncodeChunk(c, &buf);
  EXPECT_EQ(len, buf.size());
  EXPECT_EQ(len, EncodedChunkLength(c));
  Chunk out;
  ASSERT_TRUE(DecodeChunk(buf, &out).ok());
  EXPECT_EQ(out.key, c.key);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[1].mk, 101u);
  EXPECT_EQ(out.entries[1].v2, "v1");
}

TEST(ChunkCodecTest, EmptyChunk) {
  Chunk c;
  c.key = "k";
  std::string buf;
  EncodeChunk(c, &buf);
  Chunk out;
  ASSERT_TRUE(DecodeChunk(buf, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ChunkCodecTest, DetectsCorruption) {
  Chunk c = MakeChunk("k", 2);
  std::string buf;
  EncodeChunk(c, &buf);
  std::string bad = buf;
  bad[10] ^= 0x40;  // flip a payload bit
  Chunk out;
  EXPECT_TRUE(DecodeChunk(bad, &out).IsCorruption());
  // Bad magic.
  std::string bad2 = buf;
  bad2[0] = 'X';
  EXPECT_TRUE(DecodeChunk(bad2, &out).IsCorruption());
  // Truncated.
  EXPECT_TRUE(
      DecodeChunk(std::string_view(buf.data(), buf.size() - 1), &out)
          .IsCorruption());
}

TEST(ChunkCodecTest, BackToBackChunksDecodeAtBoundaries) {
  Chunk a = MakeChunk("a", 2), b = MakeChunk("b", 1);
  std::string buf;
  uint32_t la = EncodeChunk(a, &buf);
  uint32_t lb = EncodeChunk(b, &buf);
  Chunk out;
  ASSERT_TRUE(DecodeChunk(std::string_view(buf.data(), la), &out).ok());
  EXPECT_EQ(out.key, "a");
  ASSERT_TRUE(DecodeChunk(std::string_view(buf.data() + la, lb), &out).ok());
  EXPECT_EQ(out.key, "b");
}

TEST(ChunkCodecTest, FrameBytesAreUnchanged) {
  // Golden frames: the on-disk chunk and tombstone formats are fixed.
  Chunk c;
  c.key = "0000000042";
  c.entries.push_back(ChunkEntry{7, "0.15000000000000002"});
  c.entries.push_back(ChunkEntry{0x0102030405060708ull, ""});
  std::string buf = "prefix";
  uint32_t len = EncodeChunk(c, &buf);
  const std::string chunk_frame(
      "\x47\x42\x52\x4d\x3d\x00\x00\x00\x0a\x00\x00\x00\x30\x30\x30\x30"
      "\x30\x30\x30\x30\x34\x32\x02\x00\x00\x00\x07\x00\x00\x00\x00\x00"
      "\x00\x00\x13\x00\x00\x00\x30\x2e\x31\x35\x30\x30\x30\x30\x30\x30"
      "\x30\x30\x30\x30\x30\x30\x30\x30\x32\x08\x07\x06\x05\x04\x03\x02"
      "\x01\x00\x00\x00\x00\x01\x96\x90\x7a",
      73);
  EXPECT_EQ(len, chunk_frame.size());
  EXPECT_EQ(buf, "prefix" + chunk_frame);

  std::string tomb;
  EXPECT_EQ(EncodeTombstone("k9", &tomb), 18u);
  EXPECT_EQ(tomb, std::string("\x54\x42\x52\x4d\x06\x00\x00\x00\x02\x00"
                              "\x00\x00\x6b\x39\x83\xb2\xc1\xec",
                              18));
}

TEST(ChunkCodecTest, RejectsCountLargerThanPayload) {
  Chunk c = MakeChunk("k", 1);
  std::string buf;
  EncodeChunk(c, &buf);
  buf[8 + 4 + 1 + 3] = '\x7f';  // count's top byte: ~2^31 entries
  Chunk out;
  EXPECT_TRUE(DecodeChunk(buf, &out).IsCorruption());
}

// ---------------------------------------------------------------------------
// ApplyDeltaToChunk
// ---------------------------------------------------------------------------

// Reference merge: index the whole chunk by MK, then apply the deltas one
// at a time. ApplyDeltaToChunk must agree with it exactly, entry order
// included (order fixes the reducer's sum order).
void OneAtATimeApply(const std::vector<DeltaEdge>& deltas, Chunk* chunk) {
  std::unordered_map<uint64_t, size_t> by_mk;
  for (size_t i = 0; i < chunk->entries.size(); ++i) {
    by_mk[chunk->entries[i].mk] = i;
  }
  std::vector<bool> dead(chunk->entries.size(), false);
  for (const auto& d : deltas) {
    auto it = by_mk.find(d.mk);
    if (d.deleted) {
      if (it != by_mk.end()) dead[it->second] = true;
    } else if (it != by_mk.end()) {
      chunk->entries[it->second].v2 = d.v2;
      dead[it->second] = false;
    } else {
      chunk->entries.push_back(ChunkEntry{d.mk, d.v2});
      dead.push_back(false);
      by_mk[d.mk] = chunk->entries.size() - 1;
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < chunk->entries.size(); ++i) {
    if (dead[i]) continue;
    if (w != i) chunk->entries[w] = std::move(chunk->entries[i]);
    ++w;
  }
  chunk->entries.resize(w);
}

void ExpectSameAsOneAtATime(const Chunk& base,
                            const std::vector<DeltaEdge>& deltas) {
  Chunk want = base, got = base;
  OneAtATimeApply(deltas, &want);
  ApplyDeltaToChunk(deltas, &got);
  ASSERT_EQ(got.entries, want.entries);
}

TEST(ApplyDeltaTest, MatchesOneAtATimeOracleRandomized) {
  Rng rng(424242);
  for (int trial = 0; trial < 4000; ++trial) {
    // Small MK domains force repeated MKs in the chunk (the last entry
    // with a MK is the one a delta hits) and among the deltas.
    const uint64_t domain = 4 + rng.Uniform(40);
    Chunk base;
    base.key = "k";
    const size_t n_entries = rng.Uniform(48);
    for (size_t i = 0; i < n_entries; ++i) {
      base.entries.push_back(
          ChunkEntry{rng.Uniform(domain), "e" + std::to_string(i)});
    }
    std::vector<DeltaEdge> deltas;
    const size_t n_deltas = rng.Uniform(trial % 4 == 0 ? 80 : 12);
    for (size_t i = 0; i < n_deltas; ++i) {
      bool deleted = rng.Uniform(5) < 2;
      deltas.push_back(DeltaEdge{"", rng.Uniform(domain + 8),
                                 deleted ? "" : "d" + std::to_string(i),
                                 deleted});
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsOneAtATime(base, deltas))
        << "trial " << trial;
  }
}

TEST(ApplyDeltaTest, MatchesOracleOnOrderingCornerCases) {
  Chunk base = MakeChunk("k", 4);  // mks 100..103
  base.entries.push_back(ChunkEntry{101, "dup"});  // repeated MK
  const std::vector<std::vector<DeltaEdge>> cases = {
      // Delete then upsert of an existing MK: revived in place.
      {{"", 101, "", true}, {"", 101, "back", false}},
      // Upsert then delete of a new MK: never appears.
      {{"", 700, "x", false}, {"", 700, "", true}},
      // Upsert, delete, upsert of a new MK: appended at its first upsert.
      {{"", 701, "a", false},
       {"", 702, "b", false},
       {"", 701, "", true},
       {"", 701, "c", false}},
      // Delete of a new MK before its upsert is a no-op.
      {{"", 703, "", true}, {"", 704, "y", false}, {"", 703, "z", false}},
      // Repeated upserts and a delete of the duplicated MK.
      {{"", 102, "1", false}, {"", 102, "2", false}, {"", 101, "", true}},
      // Upsert then delete of an existing MK.
      {{"", 100, "u", false}, {"", 100, "", true}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsOneAtATime(base, cases[i]))
        << "case " << i;
  }
}


TEST(ApplyDeltaTest, InsertNewEdges) {
  Chunk c = MakeChunk("k", 1);
  ApplyDeltaToChunk({{"k", 777, "new", false}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[1].mk, 777u);
}

TEST(ApplyDeltaTest, DeleteExistingEdge) {
  Chunk c = MakeChunk("k", 3);  // mks 100,101,102
  ApplyDeltaToChunk({{"k", 101, "", true}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[0].mk, 100u);
  EXPECT_EQ(c.entries[1].mk, 102u);
}

TEST(ApplyDeltaTest, UpdateIsDeleteThenInsert) {
  // Paper §3.3: a modification arrives as <k,mk,'-'> followed by
  // <k,mk,new-value>.
  Chunk c = MakeChunk("k", 2);
  ApplyDeltaToChunk({{"k", 100, "", true}, {"k", 100, "updated", false}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  bool found = false;
  for (const auto& e : c.entries) {
    if (e.mk == 100) {
      EXPECT_EQ(e.v2, "updated");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ApplyDeltaTest, UpsertWithoutPriorDelete) {
  Chunk c = MakeChunk("k", 1);  // mk 100
  ApplyDeltaToChunk({{"k", 100, "replaced", false}}, &c);
  ASSERT_EQ(c.entries.size(), 1u);
  EXPECT_EQ(c.entries[0].v2, "replaced");
}

TEST(ApplyDeltaTest, DeleteAllLeavesEmpty) {
  Chunk c = MakeChunk("k", 2);
  ApplyDeltaToChunk({{"k", 100, "", true}, {"k", 101, "", true}}, &c);
  EXPECT_TRUE(c.empty());
}

TEST(ApplyDeltaTest, DeleteOfMissingMkIsNoop) {
  Chunk c = MakeChunk("k", 1);
  ApplyDeltaToChunk({{"k", 999, "", true}}, &c);
  EXPECT_EQ(c.entries.size(), 1u);
}

// ---------------------------------------------------------------------------
// ChunkIndex
// ---------------------------------------------------------------------------

TEST(ChunkIndexTest, PutLookupErase) {
  ChunkIndex idx;
  EXPECT_EQ(idx.Lookup("a"), nullptr);
  idx.Put("a", {10, 20, 0});
  ASSERT_NE(idx.Lookup("a"), nullptr);
  EXPECT_EQ(idx.Lookup("a")->offset, 10u);
  idx.Put("a", {30, 40, 1});  // overwrite points at latest version
  EXPECT_EQ(idx.Lookup("a")->offset, 30u);
  EXPECT_EQ(idx.Lookup("a")->batch, 1u);
  idx.Erase("a");
  EXPECT_EQ(idx.Lookup("a"), nullptr);
}

// ---------------------------------------------------------------------------
// MRBGStore
// ---------------------------------------------------------------------------

class MRBGStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_store_test";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { RemoveAll(dir_).ok(); }

  std::unique_ptr<MRBGStore> OpenStore(MRBGStoreOptions opts = {}) {
    auto s = MRBGStore::Open(JoinPath(dir_, "store"), opts);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(s.value());
  }

  std::string dir_;
};

TEST_F(MRBGStoreTest, AppendQueryRoundTrip) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b", 3)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"a", "b"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->entries.size(), 2u);
  auto b = store->Query("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->entries.size(), 3u);
  EXPECT_EQ(store->num_chunks(), 2u);
  EXPECT_EQ(store->num_batches(), 1u);
}

TEST_F(MRBGStoreTest, QueryMissingKeyIsNotFound) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"zz"}).ok());
  EXPECT_TRUE(store->Query("zz").status().IsNotFound());
}

TEST_F(MRBGStoreTest, QueryFromAppendBufferBeforeFlush) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  // Not flushed yet: chunk is served from the append buffer.
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->entries.size(), 2u);
  EXPECT_EQ(store->stats().io_reads, 0u);
}

TEST_F(MRBGStoreTest, PersistsAcrossReopen) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k1", 2)).ok());
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k2", 1)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 2u);
  ASSERT_TRUE(store->PrepareQueries({"k1", "k2"}).ok());
  auto k1 = store->Query("k1");
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(k1->entries.size(), 2u);
}

TEST_F(MRBGStoreTest, CloseWithoutFinishBatchStillDurable) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k1", 2)).ok());
    ASSERT_TRUE(store->Close().ok());  // implicit FinishBatch
  }
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 1u);
  EXPECT_EQ(store->num_batches(), 1u);
}

TEST_F(MRBGStoreTest, LatestVersionWins) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1, 100, "old")).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2, 200, "new")).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  EXPECT_EQ(store->num_batches(), 2u);
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->entries.size(), 2u);
  EXPECT_EQ(a->entries[0].v2, "new0");
}

TEST_F(MRBGStoreTest, RemoveChunkHidesKey) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->RemoveChunk("a").ok());
  EXPECT_FALSE(store->Contains("a"));
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  EXPECT_TRUE(store->Query("a").status().IsNotFound());
  EXPECT_EQ(store->stats().chunks_removed, 1u);
}

TEST_F(MRBGStoreTest, MergeGroupInsertDeleteUpdate) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("j", 3)).ok());  // mks 100..102
  ASSERT_TRUE(store->FinishBatch().ok());

  ASSERT_TRUE(store->PrepareQueries({"j", "new"}).ok());
  Chunk merged;
  // Delete mk=100, update mk=101, insert mk=500.
  ASSERT_TRUE(store
                  ->MergeGroup("j",
                               {{"j", 100, "", true},
                                {"j", 101, "upd", false},
                                {"j", 500, "ins", false}},
                               &merged)
                  .ok());
  ASSERT_EQ(merged.entries.size(), 3u);
  std::map<uint64_t, std::string> by_mk;
  for (const auto& e : merged.entries) by_mk[e.mk] = e.v2;
  EXPECT_EQ(by_mk.count(100u), 0u);
  EXPECT_EQ(by_mk[101], "upd");
  EXPECT_EQ(by_mk[500], "ins");

  // Merge for a brand-new key creates its chunk.
  ASSERT_TRUE(store->MergeGroup("new", {{"new", 1, "x", false}}, &merged).ok());
  EXPECT_EQ(merged.entries.size(), 1u);
  ASSERT_TRUE(store->FinishBatch().ok());

  // Both persisted; latest version of "j" visible.
  ASSERT_TRUE(store->PrepareQueries({"j", "new"}).ok());
  auto j = store->Query("j");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->entries.size(), 3u);
  EXPECT_TRUE(store->Query("new").ok());
}

TEST_F(MRBGStoreTest, MergeGroupReusesOneChunkAcrossKeys) {
  // One Chunk carried across groups (as the engine does) must come back
  // exactly as a fresh Query would: nothing from the previous group leaks.
  auto store = OpenStore();
  ASSERT_TRUE(
      store->AppendChunk(MakeChunk("a-large", 300, 1, "0.1500000000000000")).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b-small", 2, 5)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("d-removed", 3, 5)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->RemoveChunk("d-removed").ok());
  ASSERT_TRUE(store->FinishBatch().ok());

  const std::vector<std::pair<std::string, std::vector<DeltaEdge>>> groups = {
      {"a-large", {{"", 7, "0.25000000000000006", false}}},
      {"b-small", {{"", 5, "", true}, {"", 9000, "new", false}}},
      // Deletes an MK the previous chunk held; the key has no chunk.
      {"c-missing", {{"", 6, "", true}, {"", 12, "only", false}}},
      {"d-removed", {}},
  };
  std::vector<std::string> keys;
  for (const auto& [k, _] : groups) keys.push_back(k);
  for (int pass = 0; pass < 2; ++pass) {
    // Each pass: what the store holds now, plus the deltas.
    std::vector<Chunk> expected;
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    for (const auto& [k, deltas] : groups) {
      Chunk want;
      auto before = store->Query(k);
      if (before.ok()) want = std::move(before.value());
      want.key = k;
      ApplyDeltaToChunk(deltas, &want);
      expected.push_back(std::move(want));
    }
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    Chunk merged;
    for (size_t i = 0; i < groups.size(); ++i) {
      const auto& [k, deltas] = groups[i];
      ASSERT_TRUE(store->MergeGroup(k, deltas, &merged).ok()) << k;
      EXPECT_EQ(merged.key, k);
      EXPECT_EQ(merged.entries, expected[i].entries) << k;
      auto fresh = store->Query(k);
      if (merged.empty()) {
        EXPECT_TRUE(fresh.status().IsNotFound()) << k;
      } else {
        ASSERT_TRUE(fresh.ok()) << k;
        EXPECT_EQ(fresh->key, k);
        EXPECT_EQ(fresh->entries, merged.entries) << k;
      }
    }
    ASSERT_TRUE(store->FinishBatch().ok());
  }
  EXPECT_FALSE(store->Contains("d-removed"));
  EXPECT_TRUE(store->Contains("c-missing"));
}

TEST_F(MRBGStoreTest, MergeToEmptyRemovesChunk) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("j", 1)).ok());  // mk 100
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"j"}).ok());
  Chunk merged;
  ASSERT_TRUE(store->MergeGroup("j", {{"j", 100, "", true}}, &merged).ok());
  EXPECT_TRUE(merged.empty());
  EXPECT_FALSE(store->Contains("j"));
}

TEST_F(MRBGStoreTest, ForEachChunkVisitsKeyOrder) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b", 1)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("c", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  ->ForEachChunk([&](const Chunk& c) {
                    keys.push_back(c.key);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(MRBGStoreTest, CompactDropsGarbageAndKeepsLiveChunks) {
  auto store = OpenStore();
  for (int round = 0; round < 5; ++round) {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(store
                      ->AppendChunk(MakeChunk(PaddedNum(k), 3, 100,
                                              "r" + std::to_string(round)))
                      .ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
  }
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(7)).ok());
  uint64_t before = store->file_bytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->file_bytes(), before);
  EXPECT_EQ(store->num_batches(), 1u);
  EXPECT_EQ(store->num_chunks(), 19u);
  ASSERT_TRUE(store->PrepareQueries({PaddedNum(3)}).ok());
  auto c = store->Query(PaddedNum(3));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->entries[0].v2, "r40");  // latest round survived

  // Store still writable after compaction.
  ASSERT_TRUE(store->AppendChunk(MakeChunk("zzz", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"zzz"}).ok());
  EXPECT_TRUE(store->Query("zzz").ok());
}

// All four read modes must return identical data; they differ only in I/O
// pattern.
class ReadModeTest : public MRBGStoreTest,
                     public ::testing::WithParamInterface<ReadMode> {};

TEST_P(ReadModeTest, AllModesReturnSameChunks) {
  MRBGStoreOptions opts;
  opts.read_mode = GetParam();
  opts.fixed_window_bytes = 256;  // small enough to span a few chunks only
  opts.gap_threshold_bytes = 64;
  opts.read_cache_bytes = 1024;
  auto store = OpenStore(opts);

  // Two batches with interleaved key coverage, as produced by two merge
  // epochs (§5.2 Fig. 7 setup).
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b1_")).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());
  for (int k = 0; k < 50; k += 2) {
    ASSERT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b2_")).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());

  std::vector<std::string> keys;
  for (int k = 0; k < 50; k += 3) keys.push_back(PaddedNum(k));
  ASSERT_TRUE(store->PrepareQueries(keys).ok());
  for (int k = 0; k < 50; k += 3) {
    auto c = store->Query(PaddedNum(k));
    ASSERT_TRUE(c.ok()) << "mode=" << ReadModeName(GetParam()) << " k=" << k;
    ASSERT_EQ(c->entries.size(), 2u);
    // Even keys were overwritten in batch 2.
    EXPECT_EQ(c->entries[0].v2, (k % 2 == 0 ? "b2_0" : "b1_0"));
  }
  EXPECT_GT(store->stats().queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReadModeTest,
                         ::testing::Values(ReadMode::kIndexOnly,
                                           ReadMode::kSingleFixedWindow,
                                           ReadMode::kMultiFixedWindow,
                                           ReadMode::kMultiDynamicWindow),
                         [](const auto& info) {
                           std::string name = ReadModeName(info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST_F(MRBGStoreTest, DynamicWindowBatchesAdjacentQueries) {
  // With sorted queries over densely packed chunks, the dynamic window
  // should need far fewer I/O reads than index-only.
  auto run = [&](ReadMode mode, const std::string& subdir) {
    MRBGStoreOptions opts;
    opts.read_mode = mode;
    auto s = MRBGStore::Open(JoinPath(dir_, subdir), opts);
    EXPECT_TRUE(s.ok());
    auto& store = s.value();
    for (int k = 0; k < 200; ++k) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    std::vector<std::string> keys;
    for (int k = 0; k < 200; ++k) keys.push_back(PaddedNum(k));
    EXPECT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < 200; ++k) {
      EXPECT_TRUE(store->Query(PaddedNum(k)).ok());
    }
    return store->stats();
  };
  auto dyn = run(ReadMode::kMultiDynamicWindow, "dyn");
  auto idx = run(ReadMode::kIndexOnly, "idx");
  EXPECT_EQ(idx.io_reads, 200u);
  EXPECT_LT(dyn.io_reads, idx.io_reads / 4);
  EXPECT_GT(dyn.cache_hits, 0u);
}

TEST_F(MRBGStoreTest, SingleWindowThrashesAcrossBatchesDynamicDoesNot) {
  // Alternating queries across two batches: a single window reloads
  // constantly, multi windows do not (§5.2 motivation, Table 4).
  auto run = [&](ReadMode mode, const std::string& subdir) {
    MRBGStoreOptions opts;
    opts.read_mode = mode;
    opts.fixed_window_bytes = 4096;
    auto s = MRBGStore::Open(JoinPath(dir_, subdir), opts);
    EXPECT_TRUE(s.ok());
    auto& store = s.value();
    // Batch 1: odd keys; batch 2: even keys -> query order alternates
    // between batches.
    for (int k = 1; k < 100; k += 2) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    for (int k = 0; k < 100; k += 2) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    std::vector<std::string> keys;
    for (int k = 0; k < 100; ++k) keys.push_back(PaddedNum(k));
    EXPECT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < 100; ++k) {
      EXPECT_TRUE(store->Query(PaddedNum(k)).ok());
    }
    return store->stats();
  };
  auto single = run(ReadMode::kSingleFixedWindow, "single");
  auto multi = run(ReadMode::kMultiDynamicWindow, "multi");
  EXPECT_LT(multi.io_reads, single.io_reads);
  EXPECT_LT(multi.bytes_read, single.bytes_read);
}

TEST_F(MRBGStoreTest, StatsAccounting) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  EXPECT_EQ(store->stats().chunks_appended, 1u);
  EXPECT_GT(store->stats().bytes_appended, 0u);
  store->ResetStats();
  EXPECT_EQ(store->stats().chunks_appended, 0u);
}

TEST_F(MRBGStoreTest, ReloadRestoresStateFromDisk) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->Reload().ok());
  EXPECT_EQ(store->num_chunks(), 1u);
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  EXPECT_TRUE(store->Query("a").ok());
}

TEST_F(MRBGStoreTest, LargeValuesSpanAppendBufferFlushes) {
  MRBGStoreOptions opts;
  opts.append_buffer_bytes = 512;  // force frequent flushes
  auto store = OpenStore(opts);
  std::string big(2000, 'x');
  for (int k = 0; k < 10; ++k) {
    Chunk c;
    c.key = PaddedNum(k);
    c.entries.push_back(ChunkEntry{1, big});
    ASSERT_TRUE(store->AppendChunk(c).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({PaddedNum(5)}).ok());
  auto c = store->Query(PaddedNum(5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->entries[0].v2, big);
}

// ---------------------------------------------------------------------------
// Segment log: rotation, tombstones, compaction, snapshots
// ---------------------------------------------------------------------------

class LogStructuredStoreTest : public MRBGStoreTest {
 protected:
  /// Tiny segments so a handful of batches forces rotation; waste floor at
  /// zero so compaction thresholds are reachable with test-sized data.
  static MRBGStoreOptions LsOpts(size_t segment_target = 1024) {
    MRBGStoreOptions o;
    o.segment_target_bytes = segment_target;
    o.compact_min_wasted_bytes = 0;
    return o;
  }

  /// `rounds` overwrite rounds over `nkeys` keys, one batch per round.
  static void WriteRounds(MRBGStore* store, int rounds, int nkeys) {
    for (int r = 0; r < rounds; ++r) {
      for (int k = 0; k < nkeys; ++k) {
        ASSERT_TRUE(store
                        ->AppendChunk(MakeChunk(PaddedNum(k), 3, 100,
                                                "r" + std::to_string(r) + "_"))
                        .ok());
      }
      ASSERT_TRUE(store->FinishBatch().ok());
    }
  }

  /// Every key must hold its round-`r` value; `gone` keys must be absent.
  static void ExpectRound(MRBGStore* store, int r, int nkeys,
                          const std::vector<int>& gone = {}) {
    std::vector<std::string> keys;
    for (int k = 0; k < nkeys; ++k) keys.push_back(PaddedNum(k));
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < nkeys; ++k) {
      bool removed =
          std::find(gone.begin(), gone.end(), k) != gone.end();
      auto c = store->Query(PaddedNum(k));
      if (removed) {
        EXPECT_TRUE(c.status().IsNotFound()) << "k=" << k;
      } else {
        ASSERT_TRUE(c.ok()) << "k=" << k << ": " << c.status().ToString();
        EXPECT_EQ(c->entries[0].v2, "r" + std::to_string(r) + "_0")
            << "k=" << k;
      }
    }
  }
};

TEST_F(LogStructuredStoreTest, PersistsAcrossReopenWithRotation) {
  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 4, 10);
    EXPECT_GT(store->num_segments(), 1u);  // tiny target forced rotation
    ASSERT_TRUE(store->Close().ok());
  }
  ASSERT_TRUE(FileExists(JoinPath(dir_, "store/MANIFEST")));
  // Reopen with default options: the index is rebuilt from the segments.
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 10u);
  ExpectRound(store.get(), 3, 10);
}

TEST_F(LogStructuredStoreTest, TombstoneSurvivesIndexRebuild) {
  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 2, 6);
    ASSERT_TRUE(store->RemoveChunk(PaddedNum(2)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    EXPECT_GT(store->stats().tombstones_appended, 0u);
    ASSERT_TRUE(store->Close().ok());
  }
  // The index is rebuilt by scanning the segments: the delete must come
  // back as a delete, not resurrect the round-1 version.
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 5u);
  ExpectRound(store.get(), 1, 6, /*gone=*/{2});
}

TEST_F(LogStructuredStoreTest, LatestVersionWinsAcrossSegments) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 6, 4);
  ASSERT_GT(store->num_segments(), 2u);
  ExpectRound(store.get(), 5, 4);
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore();
  ExpectRound(reopened.get(), 5, 4);
}

TEST_F(LogStructuredStoreTest, CompactIfNeededReclaimsWaste) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 8, 8);
  uint64_t wasted_before = store->wasted_bytes();
  uint64_t bytes_before = store->file_bytes();
  EXPECT_GT(wasted_before, 0u);
  ASSERT_TRUE(store->CompactIfNeeded().ok());
  auto st = store->stats();
  EXPECT_GE(st.compaction_passes, 1u);
  EXPECT_GT(st.compaction_bytes_reclaimed, 0u);
  EXPECT_LT(store->file_bytes(), bytes_before);
  EXPECT_LT(store->wasted_bytes(), wasted_before);
  ExpectRound(store.get(), 7, 8);
  // Still writable, and the result survives a reopen.
  WriteRounds(store.get(), 1, 8);  // round 0 values again
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore();
  ExpectRound(reopened.get(), 0, 8);
}

TEST_F(LogStructuredStoreTest, FullCompactCollapsesSegments) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 6, 8);
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(3)).ok());
  size_t segs_before = store->num_segments();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->num_segments(), segs_before);
  EXPECT_EQ(store->num_chunks(), 7u);
  ExpectRound(store.get(), 5, 8, /*gone=*/{3});
}

TEST_F(LogStructuredStoreTest, BackgroundCompactionAtBatchBoundaries) {
  MRBGStoreOptions opts = LsOpts(512);
  opts.background_compaction = true;
  opts.compact_wasted_ratio = 0.1;
  auto store = OpenStore(opts);
  WriteRounds(store.get(), 10, 8);
  store->WaitForCompaction();
  EXPECT_GE(store->stats().compaction_passes, 1u);
  ExpectRound(store.get(), 9, 8);
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore(opts);
  ExpectRound(reopened.get(), 9, 8);
}

TEST_F(LogStructuredStoreTest, ReadModesAgreeAcrossSegments) {
  for (ReadMode mode :
       {ReadMode::kIndexOnly, ReadMode::kSingleFixedWindow,
        ReadMode::kMultiFixedWindow, ReadMode::kMultiDynamicWindow}) {
    MRBGStoreOptions opts = LsOpts(2048);
    opts.read_mode = mode;
    opts.fixed_window_bytes = 256;
    opts.gap_threshold_bytes = 64;
    opts.read_cache_bytes = 1024;
    std::string sub = std::string("mode_") + ReadModeName(mode);
    auto s = MRBGStore::Open(JoinPath(dir_, sub), opts);
    ASSERT_TRUE(s.ok());
    auto& store = s.value();
    for (int k = 0; k < 50; ++k) {
      ASSERT_TRUE(
          store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b1_")).ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
    for (int k = 0; k < 50; k += 2) {
      ASSERT_TRUE(
          store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b2_")).ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
    std::vector<std::string> keys;
    for (int k = 0; k < 50; k += 3) keys.push_back(PaddedNum(k));
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < 50; k += 3) {
      auto c = store->Query(PaddedNum(k));
      ASSERT_TRUE(c.ok()) << "mode=" << ReadModeName(mode) << " k=" << k;
      ASSERT_EQ(c->entries.size(), 2u);
      EXPECT_EQ(c->entries[0].v2, (k % 2 == 0 ? "b2_0" : "b1_0"))
          << "mode=" << ReadModeName(mode) << " k=" << k;
    }
  }
}

TEST_F(LogStructuredStoreTest, SnapshotIsFrozenAgainstLaterAppends) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 3, 8);
  std::string snap = JoinPath(dir_, "snap");
  std::vector<std::string> files;
  ASSERT_TRUE(store->SnapshotInto(snap, &files).ok());
  EXPECT_FALSE(files.empty());
  // Keep appending to the source: the snapshot must not see any of it,
  // even though it shares inodes with the source's segments.
  WriteRounds(store.get(), 2, 8);
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(0)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());

  auto snap_store = MRBGStore::Open(snap);
  ASSERT_TRUE(snap_store.ok()) << snap_store.status().ToString();
  EXPECT_EQ(snap_store.value()->num_chunks(), 8u);
  ExpectRound(snap_store.value().get(), 2, 8);
  // And the source still serves its latest state.
  ExpectRound(store.get(), 1, 8, /*gone=*/{0});
}

TEST_F(LogStructuredStoreTest, ListStoreFilesNamesManifestAndSegments) {
  // Nothing durable yet.
  auto empty = MRBGStore::ListStoreFiles(JoinPath(dir_, "nothing"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 2, 6);
    ASSERT_TRUE(store->Close().ok());
  }
  auto ls = MRBGStore::ListStoreFiles(JoinPath(dir_, "store"));
  ASSERT_TRUE(ls.ok());
  bool has_manifest = false, has_segment = false;
  for (const auto& f : *ls) {
    if (f.find("MANIFEST") != std::string::npos) has_manifest = true;
    if (f.find("seg-") != std::string::npos) has_segment = true;
  }
  EXPECT_TRUE(has_manifest);
  EXPECT_TRUE(has_segment);
}

// Crash injection at each compaction stage ("mrbg/compact/<stage>" crash
// points): a kill between the segment rewrite and the index/manifest swap
// must recover to the old state or the new state, never a torn mixture.
class CompactionCrashTest : public LogStructuredStoreTest,
                            public ::testing::WithParamInterface<const char*> {
 protected:
  void TearDown() override {
    fault::FaultInjector::Instance()->Reset();
    LogStructuredStoreTest::TearDown();
  }
};

TEST_P(CompactionCrashTest, RecoversToConsistentState) {
  const std::string stage = GetParam();
  {
    auto store = OpenStore(LsOpts(512));
    WriteRounds(store.get(), 6, 10);
    ASSERT_TRUE(store->RemoveChunk(PaddedNum(5)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    auto* faults = fault::FaultInjector::Instance();
    ASSERT_TRUE(
        faults->LoadSpec("op=crash,path=mrbg/compact/" + stage + ",kind=crash")
            .ok());
    ASSERT_TRUE(store->Compact().ok());  // abandoned at `stage`
    EXPECT_EQ(faults->injections(), 1u);
    faults->Reset();
    // The crashed store must stop touching disk, like a killed process.
    ASSERT_TRUE(store->Close().ok());
  }
  // Recovery: reopen and verify the full logical state, whichever side of
  // the crash point the on-disk files landed on.
  auto store = OpenStore(LsOpts(512));
  EXPECT_EQ(store->num_chunks(), 9u);
  ExpectRound(store.get(), 5, 10, /*gone=*/{5});
  // And the recovered store compacts + writes normally.
  ASSERT_TRUE(store->Compact().ok());
  WriteRounds(store.get(), 1, 10);
  ExpectRound(store.get(), 0, 10);
}

INSTANTIATE_TEST_SUITE_P(AllStages, CompactionCrashTest,
                         ::testing::Values("rewrite", "rename", "manifest"));

}  // namespace
}  // namespace i2mr
