// Direct unit tests for the persistence helpers of the core engines:
// StateStore (loop-variant state files) and ResultStore (preserved Reduce
// outputs with per-instance output tracking).
#include <gtest/gtest.h>

#include <string>

#include "core/result_store.h"
#include "core/state_store.h"
#include "io/env.h"

namespace i2mr {
namespace {

class StoresTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_stores";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  std::string Path(const std::string& name) { return JoinPath(dir_, name); }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

TEST_F(StoresTest, StateStorePutGetErase) {
  StateStore store(Path("state"));
  EXPECT_EQ(store.Get("a"), nullptr);
  store.Put("a", "1");
  store.Put("b", "2");
  ASSERT_NE(store.Get("a"), nullptr);
  EXPECT_EQ(*store.Get("a"), "1");
  store.Put("a", "9");
  EXPECT_EQ(*store.Get("a"), "9");
  store.Erase("a");
  EXPECT_EQ(store.Get("a"), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(StoresTest, StateStoreSaveLoadRoundTrip) {
  {
    StateStore store(Path("state"));
    store.Put("z", "26");
    store.Put("a", "1");
    ASSERT_TRUE(store.Save().ok());
  }
  StateStore loaded(Path("state"));
  ASSERT_TRUE(loaded.Load().ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(*loaded.Get("z"), "26");
  // Items are sorted by DK.
  ASSERT_EQ(loaded.items().size(), 2u);
  EXPECT_EQ(loaded.items().begin()->first, "a");
  EXPECT_EQ(loaded.items().rbegin()->first, "z");
}

TEST_F(StoresTest, StateStoreLoadMissingFileIsEmpty) {
  StateStore store(Path("missing"));
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(StoresTest, StateStoreLoadReplacesContents) {
  StateStore store(Path("state"));
  store.Put("only-in-memory", "x");
  ASSERT_TRUE(store.Save().ok());
  store.Put("not-saved", "y");
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.Get("not-saved"), nullptr);
  EXPECT_NE(store.Get("only-in-memory"), nullptr);
}

// ---------------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------------

TEST_F(StoresTest, ResultStoreInstanceOutputsReplaceOldOnes) {
  auto store = ResultStore::Open(Path("results"));
  ASSERT_TRUE(store.ok());
  // Reduce instance "k2a" emits two outputs.
  store->SetInstanceOutputs("k2a", {{"out1", "v1"}, {"out2", "v2"}});
  EXPECT_EQ(store->size(), 2u);
  // Re-reducing the instance replaces exactly its previous outputs.
  store->SetInstanceOutputs("k2a", {{"out3", "v3"}});
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->Get("out1"), nullptr);
  ASSERT_NE(store->Get("out3"), nullptr);
  EXPECT_EQ(*store->Get("out3"), "v3");
}

TEST_F(StoresTest, ResultStoreEraseInstance) {
  auto store = ResultStore::Open(Path("results"));
  ASSERT_TRUE(store.ok());
  store->SetInstanceOutputs("a", {{"x", "1"}});
  store->SetInstanceOutputs("b", {{"y", "2"}});
  store->EraseInstance("a");
  EXPECT_EQ(store->Get("x"), nullptr);
  EXPECT_NE(store->Get("y"), nullptr);
  store->EraseInstance("never-existed");  // no-op
  EXPECT_EQ(store->size(), 1u);
}

TEST_F(StoresTest, ResultStorePersistsInstanceMap) {
  {
    auto store = ResultStore::Open(Path("results"));
    ASSERT_TRUE(store.ok());
    store->SetInstanceOutputs("inst", {{"k3", "v3"}, {"k4", "v4"}});
    store->Put("direct", "d");  // accumulator-path entry
    ASSERT_TRUE(store->Save().ok());
  }
  auto reloaded = ResultStore::Open(Path("results"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), 3u);
  // The instance mapping survived: replacing the instance drops k3/k4 but
  // not the accumulator entry.
  reloaded->SetInstanceOutputs("inst", {});
  EXPECT_EQ(reloaded->Get("k3"), nullptr);
  EXPECT_EQ(reloaded->Get("k4"), nullptr);
  EXPECT_NE(reloaded->Get("direct"), nullptr);
}

TEST_F(StoresTest, ResultStoreSnapshotSorted) {
  auto store = ResultStore::Open(Path("results"));
  ASSERT_TRUE(store.ok());
  store->Put("b", "2");
  store->Put("a", "1");
  auto snap = store->Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].key, "a");
}

TEST_F(StoresTest, ResultStoreRejectsCorruptFile) {
  ASSERT_TRUE(WriteStringToFile(Path("bad"), "not a result store").ok());
  EXPECT_FALSE(ResultStore::Open(Path("bad")).ok());
}

}  // namespace
}  // namespace i2mr
