// MRBG-Store microbenchmarks (google-benchmark): chunk codec, the double
// text codec, appends, point queries under each read mode, delta merge,
// compaction.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/codec.h"
#include "common/logging.h"
#include "io/env.h"
#include "mrbg/chunk.h"
#include "mrbg/mrbg_store.h"

namespace i2mr {
namespace {

Chunk MakeChunk(const std::string& key, int entries, int value_bytes) {
  Chunk c;
  c.key = key;
  std::string v(value_bytes, 'v');
  for (int i = 0; i < entries; ++i) {
    c.entries.push_back(ChunkEntry{static_cast<uint64_t>(i * 7 + 1), v});
  }
  return c;
}

void BM_ChunkEncode(benchmark::State& state) {
  Chunk c = MakeChunk("key-000123", static_cast<int>(state.range(0)), 16);
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    benchmark::DoNotOptimize(EncodeChunk(c, &buf));
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_ChunkEncode)->Arg(4)->Arg(32)->Arg(256);

void BM_ChunkDecode(benchmark::State& state) {
  Chunk c = MakeChunk("key-000123", static_cast<int>(state.range(0)), 16);
  std::string buf;
  EncodeChunk(c, &buf);
  Chunk out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeChunk(buf, &out));
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_ChunkDecode)->Arg(4)->Arg(32)->Arg(256);

void BM_ApplyDelta(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Chunk base = MakeChunk("k", n, 16);
  std::vector<DeltaEdge> deltas;
  for (int i = 0; i < n / 4 + 1; ++i) {
    deltas.push_back(DeltaEdge{"k", static_cast<uint64_t>(i * 7 + 1), "upd", false});
  }
  for (auto _ : state) {
    Chunk c = base;
    ApplyDeltaToChunk(deltas, &c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ApplyDelta)->Arg(8)->Arg(64)->Arg(512);

/// A PageRank-like value whose "%.17g" text is 19 bytes (17 significant
/// digits, as most ranks and shares print).
double RankLike(int i) {
  double d = 0.15 + i * 3.3333333e-7;
  while (FormatDouble(d).size() != 19) d = std::nextafter(d, 1.0);
  return d;
}

void BM_FormatDouble(benchmark::State& state) {
  std::vector<double> values;
  for (int i = 0; i < 1024; ++i) values.push_back(RankLike(i));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FormatDouble(values[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FormatDouble);

void BM_ParseDouble(benchmark::State& state) {
  std::vector<std::string> texts;
  for (int i = 0; i < 1024; ++i) texts.push_back(FormatDouble(RankLike(i)));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseDouble(texts[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseDouble);

/// range(0) = ReadMode.
class StoreFixture : public benchmark::Fixture {
 public:
  /// The version of chunk `k` the store holds: 8 entries of 24-byte values.
  virtual Chunk StoredChunk(int k) { return MakeChunk(PaddedNum(k), 8, 24); }

  void SetUp(const benchmark::State& state) override {
    dir_ = "/tmp/i2mr_bench/micro_mrbg";
    RemoveAll(dir_).ok();
    MRBGStoreOptions options;
    options.read_mode = static_cast<ReadMode>(state.range(0));
    auto s = MRBGStore::Open(dir_, options);
    store_ = std::move(s.value());
    // Two batches of 2000 chunks.
    for (int b = 0; b < 2; ++b) {
      for (int k = 0; k < 2000; ++k) {
        I2MR_CHECK_OK(store_->AppendChunk(StoredChunk(k)));
      }
      I2MR_CHECK_OK(store_->FinishBatch());
    }
    keys_.clear();
    for (int k = 0; k < 2000; k += 2) keys_.push_back(PaddedNum(k));
  }

  void TearDown(const benchmark::State&) override {
    I2MR_CHECK_OK(store_->Close());
    store_.reset();
    (void)RemoveAll(dir_);
  }

  static std::string Label(const benchmark::State& state) {
    return ReadModeName(static_cast<ReadMode>(state.range(0)));
  }

 protected:
  std::string dir_;
  std::unique_ptr<MRBGStore> store_;
  std::vector<std::string> keys_;
};

BENCHMARK_DEFINE_F(StoreFixture, QuerySweep)(benchmark::State& state) {
  for (auto _ : state) {
    I2MR_CHECK_OK(store_->PrepareQueries(keys_));
    for (const auto& k : keys_) {
      auto c = store_->Query(k);
      benchmark::DoNotOptimize(c);
    }
  }
  state.SetItemsProcessed(state.iterations() * keys_.size());
  state.SetLabel(Label(state));
}
BENCHMARK_REGISTER_F(StoreFixture, QuerySweep)
    ->Arg(static_cast<int>(ReadMode::kIndexOnly))
    ->Arg(static_cast<int>(ReadMode::kSingleFixedWindow))
    ->Arg(static_cast<int>(ReadMode::kMultiFixedWindow))
    ->Arg(static_cast<int>(ReadMode::kMultiDynamicWindow));

BENCHMARK_DEFINE_F(StoreFixture, MergeGroups)(benchmark::State& state) {
  for (auto _ : state) {
    I2MR_CHECK_OK(store_->PrepareQueries(keys_));
    Chunk merged;
    for (const auto& k : keys_) {
      std::vector<DeltaEdge> deltas = {{k, 1, "new-value", false},
                                       {k, 8, "", true}};
      I2MR_CHECK_OK(store_->MergeGroup(k, deltas, &merged));
    }
    I2MR_CHECK_OK(store_->FinishBatch());
  }
  state.SetItemsProcessed(state.iterations() * keys_.size());
  state.SetLabel(Label(state));
}
BENCHMARK_REGISTER_F(StoreFixture, MergeGroups)
    ->Arg(static_cast<int>(ReadMode::kIndexOnly))
    ->Arg(static_cast<int>(ReadMode::kMultiDynamicWindow));

/// The refresh hot path's shape: chunks of 19-byte "%.17g" values and
/// deltas that overwrite one of them with a new value.
class DoubleStoreFixture : public StoreFixture {
 public:
  Chunk StoredChunk(int k) override {
    Chunk c;
    c.key = PaddedNum(k);
    for (int i = 0; i < 8; ++i) {
      c.entries.push_back(ChunkEntry{static_cast<uint64_t>(i * 7 + 1),
                                     FormatDouble(RankLike(k * 8 + i))});
    }
    return c;
  }
};

BENCHMARK_DEFINE_F(DoubleStoreFixture, MergeGroups)(benchmark::State& state) {
  std::vector<DeltaEdge> deltas(1);
  deltas[0].mk = 1;
  deltas[0].v2 = FormatDouble(RankLike(-1));
  for (auto _ : state) {
    I2MR_CHECK_OK(store_->PrepareQueries(keys_));
    Chunk merged;
    for (const auto& k : keys_) {
      I2MR_CHECK_OK(store_->MergeGroup(k, deltas, &merged));
    }
    I2MR_CHECK_OK(store_->FinishBatch());
  }
  state.SetItemsProcessed(state.iterations() * keys_.size());
  state.SetLabel(Label(state));
}
BENCHMARK_REGISTER_F(DoubleStoreFixture, MergeGroups)
    ->Arg(static_cast<int>(ReadMode::kMultiDynamicWindow));

BENCHMARK_DEFINE_F(StoreFixture, Compact)(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    // Add garbage: overwrite every chunk once more.
    for (int k = 0; k < 2000; ++k) {
      I2MR_CHECK_OK(store_->AppendChunk(StoredChunk(k)));
    }
    I2MR_CHECK_OK(store_->FinishBatch());
    state.ResumeTiming();
    I2MR_CHECK_OK(store_->Compact());
  }
  state.SetLabel(Label(state));
}
BENCHMARK_REGISTER_F(StoreFixture, Compact)
    ->Arg(static_cast<int>(ReadMode::kMultiDynamicWindow))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace i2mr
