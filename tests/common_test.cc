// Unit tests for src/common: status, codecs, hashing, RNG, thread pool,
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/hash.h"
#include "common/kv.h"
#include "common/metrics.h"
#include "common/metrics_exporter.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/env.h"

namespace i2mr {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, DistinctCodes) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_FALSE(Status::IOError("x").IsCorruption());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().message(), "nope");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string(1000, 'x');
  std::string s = std::move(v).value();
  EXPECT_EQ(s.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(CodecTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 1);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed32(&buf, 0xffffffffu);
  Decoder dec(buf);
  uint32_t v;
  ASSERT_TRUE(dec.GetFixed32(&v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(dec.GetFixed32(&v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(dec.GetFixed32(&v));
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(dec.GetFixed32(&v));
  EXPECT_EQ(v, 0xffffffffu);
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint64_t v;
  ASSERT_TRUE(dec.GetFixed64(&v));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(100000, 'z'));
  Decoder dec(buf);
  std::string s;
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetLengthPrefixed(&s));
  EXPECT_EQ(s.size(), 100000u);
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, DoubleRoundTrip) {
  std::string buf;
  PutDouble(&buf, 3.14159);
  PutDouble(&buf, -0.0);
  PutDouble(&buf, 1e308);
  Decoder dec(buf);
  double d;
  ASSERT_TRUE(dec.GetDouble(&d));
  EXPECT_DOUBLE_EQ(d, 3.14159);
  ASSERT_TRUE(dec.GetDouble(&d));
  EXPECT_DOUBLE_EQ(d, -0.0);
  ASSERT_TRUE(dec.GetDouble(&d));
  EXPECT_DOUBLE_EQ(d, 1e308);
}

TEST(CodecTest, DecoderFailsOnTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  Decoder dec(buf.data(), buf.size() - 2);
  std::string s;
  EXPECT_FALSE(dec.GetLengthPrefixed(&s));
  EXPECT_FALSE(dec.ok());
  // Further reads keep failing.
  uint32_t v;
  EXPECT_FALSE(dec.GetFixed32(&v));
}

TEST(CodecTest, PaddedNumOrdersLexicographically) {
  EXPECT_EQ(PaddedNum(42), "0000000042");
  EXPECT_LT(PaddedNum(9), PaddedNum(10));
  EXPECT_LT(PaddedNum(99), PaddedNum(100));
  EXPECT_LT(PaddedNum(0), PaddedNum(1));
}

TEST(CodecTest, ParseNum) {
  ASSERT_TRUE(ParseNum("0000000042").ok());
  EXPECT_EQ(*ParseNum("0000000042"), 42u);
  EXPECT_EQ(*ParseNum("7"), 7u);
  EXPECT_FALSE(ParseNum("").ok());
  EXPECT_FALSE(ParseNum("12x").ok());
}

TEST(CodecTest, ParseFormatDoubleRoundTrip) {
  for (double d : {0.0, 1.0, -2.5, 0.15, 1e-9, 123456.789}) {
    auto parsed = ParseDouble(FormatDouble(d));
    ASSERT_TRUE(parsed.ok());
    EXPECT_DOUBLE_EQ(*parsed, d);
  }
  EXPECT_FALSE(ParseDouble("abc").ok());
}

// References: FormatDouble must produce printf's "%.17g" bytes, and
// ParseDouble must give strtod's verdicts and values.
std::string ReferenceFormatDouble(double d) {
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
  return std::string(buf, n);
}

StatusOr<double> ReferenceParseDouble(std::string_view s) {
  std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(tmp.c_str(), &end);
  if (end != tmp.c_str() + tmp.size() || errno == ERANGE) {
    return Status::InvalidArgument("bad double: " + tmp);
  }
  return d;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

void ExpectSameParse(const std::string& s) {
  auto got = ParseDouble(s);
  auto want = ReferenceParseDouble(s);
  ASSERT_EQ(got.ok(), want.ok()) << "input \"" << s << "\"";
  if (!want.ok()) return;
  if (std::isnan(*want)) {
    EXPECT_TRUE(std::isnan(*got)) << s;
  } else {
    EXPECT_EQ(Bits(*got), Bits(*want)) << s;
  }
}

std::vector<double> DoubleSweep() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0,
                           -0.0,
                           1.0,
                           0.15,
                           0.15000000000000002,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           1e308,
                           -1e308,
                           1e-308,
                           1e16,
                           1e17,
                           123456789012345678.0,
                           inf,
                           -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(20240601);
  for (int i = 0; i < 20000; ++i) {
    uint64_t b = rng.Next();  // any bit pattern: subnormals, nan payloads
    double d;
    std::memcpy(&d, &b, 8);
    v.push_back(d);
  }
  for (int i = 0; i < 20000; ++i) {
    // PageRank-like magnitudes: ranks, shares, sums.
    v.push_back(rng.NextDouble() * std::pow(10.0, rng.Uniform(9)) / 1000);
  }
  return v;
}

TEST(CodecTest, FormatDoubleMatchesPrintfBytes) {
  for (double d : DoubleSweep()) {
    ASSERT_EQ(FormatDouble(d), ReferenceFormatDouble(d))
        << "bits 0x" << std::hex << Bits(d);
  }
}

TEST(CodecTest, ParseDoubleMatchesStrtodVerdicts) {
  for (const char* s :
       {"+1", " 1", "1 ", "inf", "-inf", "infinity", "nan", "-nan", "0x1p3",
        "1e-400", "1e400", "", ".", "1.5x", "-", "e5", "1e", "1.", ".5",
        "-.5", "0", "-0", "0.0e0", "00012", "4.9406564584124654e-324",
        "2.2250738585072014e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "0.15000000000000002", "1e-310"}) {
    ExpectSameParse(s);
  }
  for (double d : DoubleSweep()) {
    std::string s = ReferenceFormatDouble(d);
    ExpectSameParse(s);
    ExpectSameParse(s + "x");
    ExpectSameParse("+" + s);
    ExpectSameParse(s.substr(0, s.size() / 2));
  }
}

// ---------------------------------------------------------------------------
// Hash
// ---------------------------------------------------------------------------

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(Hash64("pagerank"), Hash64("pagerank"));
  EXPECT_NE(Hash64("a"), Hash64("b"));
  EXPECT_NE(Hash64(""), Hash64("a"));
  // Different seeds give different hashes.
  EXPECT_NE(Hash64("a", 1), Hash64("a", 2));
}

TEST(HashTest, LowCollisionOnSequentialKeys) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(Hash64(PaddedNum(i)));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, MapInstanceKeyDependsOnBothKeyAndValue) {
  EXPECT_NE(MapInstanceKey("k", "v1"), MapInstanceKey("k", "v2"));
  EXPECT_NE(MapInstanceKey("k1", "v"), MapInstanceKey("k2", "v"));
  EXPECT_EQ(MapInstanceKey("k", "v"), MapInstanceKey("k", "v"));
  // Boundary shifting must not collide.
  EXPECT_NE(MapInstanceKey("ab", "c"), MapInstanceKey("a", "bc"));
}

TEST(HashTest, Crc32KnownVectorsAndSensitivity) {
  // The standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
  // Single-bit damage anywhere changes the checksum.
  std::string s(64, 'x');
  uint32_t base = Crc32(s);
  for (size_t i = 0; i < s.size(); i += 7) {
    std::string t = s;
    t[i] ^= 1;
    EXPECT_NE(Crc32(t), base);
  }
}

TEST(HashTest, PartitionBalance) {
  // Hash partitioning of padded numeric keys should be roughly balanced.
  const int kParts = 8;
  const int kKeys = 80000;
  std::vector<int> counts(kParts, 0);
  for (int i = 0; i < kKeys; ++i) {
    counts[Hash64(PaddedNum(i)) % kParts]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, kKeys / kParts * 0.9);
    EXPECT_LT(c, kKeys / kParts * 1.1);
  }
}

// ---------------------------------------------------------------------------
// Rng / Zipf
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ZipfTest, SkewFavorsSmallIds) {
  Rng rng(13);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Sample(&rng)]++;
  // Rank 0 much more frequent than rank 500.
  EXPECT_GT(counts[0], counts[500] * 10);
  // All samples in range (vector indexing would have crashed otherwise).
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 100000);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, 64, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [&](int) { FAIL(); });
}

TEST(ThreadPoolTest, ConcurrentSubmitDuringWaitIdle) {
  // Producers keep submitting while another thread sits in WaitIdle: every
  // submitted task must run, and WaitIdle must return once the queue truly
  // drains, not merely when it first observes an empty queue.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.Submit([&] { count.fetch_add(1); });
        if (i % 50 == 0) pool.WaitIdle();  // interleave waits with submits
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.WaitIdle();
  EXPECT_EQ(count.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  // Destroying the pool with a deep queue must run every queued task (the
  // documented contract), not drop or deadlock on them.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    // No WaitIdle: the destructor races the still-full queue.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, NestedParallelForAcrossPools) {
  // An epoch driver running on one pool issues ParallelFor against a
  // different pool (manager scheduler -> cluster workers). Ensure the
  // blocking rendezvous completes under contention.
  ThreadPool drivers(3);
  ThreadPool workers(2);
  std::atomic<int> total{0};
  ParallelFor(&drivers, 3, [&](int) {
    ParallelFor(&workers, 16, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 48);
}

TEST(ThreadPoolTest, WaitIdleThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 2);
}

// ---------------------------------------------------------------------------
// Metrics / timer
// ---------------------------------------------------------------------------

TEST(MetricsTest, AddAccumulates) {
  StageMetrics a, b;
  a.map_ns = 100;
  a.shuffle_bytes = 5;
  b.map_ns = 50;
  b.shuffle_bytes = 7;
  a.Add(b);
  EXPECT_EQ(a.map_ns.load(), 150);
  EXPECT_EQ(a.shuffle_bytes.load(), 12);
}

TEST(MetricsTest, ScopedTimerAccumulates) {
  std::atomic<int64_t> ns{0};
  {
    ScopedTimer t(&ns);
  }
  {
    ScopedTimer t(&ns);
  }
  EXPECT_GE(ns.load(), 0);
}

TEST(KVTest, Ordering) {
  EXPECT_LT((KV{"a", "z"}), (KV{"b", "a"}));
  EXPECT_LT((KV{"a", "a"}), (KV{"a", "b"}));
  EXPECT_EQ((KV{"a", "a"}), (KV{"a", "a"}));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetIsStableAndCountersAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.Get("pipeline.epochs");
  EXPECT_EQ(c, registry.Get("pipeline.epochs"));  // get-or-create, stable
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(registry.Get("pipeline.epochs")->value(), 5);
  EXPECT_EQ(registry.Get("pipeline.other")->value(), 0);
}

TEST(MetricsRegistryTest, SnapshotSortedAndPrefixAggregation) {
  MetricsRegistry registry;
  registry.Get("serving.pr.shard0.reads")->Add(3);
  registry.Get("serving.pr.shard1.reads")->Add(5);
  registry.Get("serving.pr.router.deltas")->Add(7);
  registry.Get("other.counter")->Add(11);

  auto snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));

  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard0"), 3);
  EXPECT_EQ(registry.SumPrefixed("serving.pr."), 15);
  EXPECT_EQ(registry.SumPrefixed(""), 26);
  EXPECT_EQ(registry.SumPrefixed("no.such."), 0);
  // Families are dot-bounded: a partial last token matches nothing.
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard"), 0);

  std::string text = registry.ToString("serving.pr.");
  EXPECT_NE(text.find("serving.pr.shard0.reads=3"), std::string::npos);
  EXPECT_NE(text.find("serving.pr.shard1.reads=5"), std::string::npos);
  EXPECT_EQ(text.find("other.counter"), std::string::npos);
  EXPECT_EQ(registry.ToString("serving.pr.shard").size(), 0u);
}

TEST(MetricsRegistryTest, FamilyMatchingIsDotBounded) {
  MetricsRegistry registry;
  registry.Get("serving.pr.shard1.reads")->Add(2);
  registry.Get("serving.pr.shard1.lag")->Add(3);
  registry.Get("serving.pr.shard10.reads")->Add(100);
  registry.Get("serving.pr.shard1")->Add(40);  // exact name is in-family

  // "shard1" must not swallow "shard10.*".
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard1"), 45);
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard1."), 5);
  std::string text = registry.ToString("serving.pr.shard1");
  EXPECT_EQ(text.find("shard10"), std::string::npos);
  EXPECT_NE(text.find("serving.pr.shard1.reads=2"), std::string::npos);
  EXPECT_NE(text.find("serving.pr.shard1=40"), std::string::npos);

  EXPECT_EQ(registry.Unregister("serving.pr.shard1"), 3u);
  EXPECT_EQ(registry.Get("serving.pr.shard10.reads")->value(), 100);
  EXPECT_EQ(registry.Snapshot().size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndIncrementIsSafe) {
  MetricsRegistry registry;
  const int kThreads = 8, kIters = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads hammer a shared counter, half create their own —
      // insertion must never invalidate a live Counter*.
      Counter* mine = registry.Get("concurrent.t" + std::to_string(t));
      Counter* shared = registry.Get("concurrent.shared");
      for (int i = 0; i < kIters; ++i) {
        mine->Increment();
        shared->Increment();
        if (i % 100 == 0) {
          registry.Get("concurrent.extra.t" + std::to_string(t) + "." +
                       std::to_string(i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Get("concurrent.shared")->value(), kThreads * kIters);
  int64_t per_thread_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    per_thread_sum += registry.SumPrefixed("concurrent.t" + std::to_string(t));
  }
  EXPECT_EQ(per_thread_sum, kThreads * kIters);
}

TEST(MetricsRegistryTest, UnregisterRemovesSeriesButCountersStayValid) {
  MetricsRegistry registry;
  Counter* r0 = registry.Get("serving.pr.shard0.replica0.reads");
  Counter* r1 = registry.Get("serving.pr.shard0.replica0.lag");
  Counter* keep = registry.Get("serving.pr.shard0.replica1.reads");
  r0->Add(3);
  r1->Add(2);
  keep->Add(7);

  EXPECT_EQ(registry.Unregister("serving.pr.shard0.replica0."), 2u);
  // Gone from every visible surface...
  EXPECT_EQ(registry.Snapshot().size(), 1u);
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard0.replica0."), 0);
  EXPECT_EQ(registry.ToString("serving.pr.shard0.replica0").size(), 0u);
  // ...but retired Counter* held by callers remain safe to use.
  r0->Increment();
  EXPECT_EQ(r0->value(), 4);
  EXPECT_EQ(keep->value(), 7);
  // Re-registering the name starts a fresh series.
  EXPECT_EQ(registry.Get("serving.pr.shard0.replica0.reads")->value(), 0);
  EXPECT_EQ(registry.Unregister("no.such.prefix."), 0u);
}

TEST(MetricsRegistryTest, ScopedMetricPrefixRetiresExactlyItsFamily) {
  MetricsRegistry registry;
  // "replica1" must not swallow "replica10" when it unregisters.
  Counter* ten = registry.Get("serving.pr.shard0.replica10.reads");
  ten->Add(5);
  {
    ScopedMetricPrefix scope(&registry, "serving.pr.shard0.replica1");
    scope.Get("reads")->Add(3);
    scope.Get("lag")->Add(1);
    EXPECT_EQ(registry.SumPrefixed("serving.pr.shard0.replica1."), 4);
  }
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard0.replica1."), 0);
  EXPECT_EQ(registry.Get("serving.pr.shard0.replica10.reads")->value(), 5);

  // Move transfers ownership; Reset is idempotent.
  ScopedMetricPrefix a(&registry, "serving.pr.shard0.replica2");
  a.Get("reads")->Increment();
  ScopedMetricPrefix b(std::move(a));
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  b.Reset();
  b.Reset();
  EXPECT_EQ(registry.SumPrefixed("serving.pr.shard0.replica2."), 0);
}

// ---------------------------------------------------------------------------
// Gauge / Histogram
// ---------------------------------------------------------------------------

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("replica.lag_epochs");
  EXPECT_EQ(g, registry.GetGauge("replica.lag_epochs"));
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  g->Set(2);  // gauges go DOWN without signed-delta bookkeeping
  EXPECT_EQ(g->value(), 2);
  g->Add(-2);
  EXPECT_EQ(g->value(), 0);
  auto snap = registry.SnapshotGauges();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "replica.lag_epochs");
}

TEST(HistogramTest, PercentilesWithinBucketError) {
  Histogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.sum(), 10000LL * 10001 / 2);
  // Log buckets with 8 sub-buckets per octave: <= ~9% relative error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000, 5000 * 0.09);
  EXPECT_NEAR(static_cast<double>(h.p95()), 9500, 9500 * 0.09);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900, 9900 * 0.09);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
  h.Record(-17);  // negative clamps to 0 instead of indexing off the table
  EXPECT_EQ(h.ValueAtPercentile(0.0), 0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 8; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtPercentile(0.01), 0);
  EXPECT_EQ(h.p99(), 7);
  auto buckets = h.NonzeroBuckets();
  ASSERT_EQ(buckets.size(), 8u);
  for (size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].first, i);
    EXPECT_EQ(buckets[i].second, 1u);
  }
}

TEST(HistogramTest, ConcurrentRecordAndMerge) {
  Histogram a, b;
  const int kThreads = 8, kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b, t] {
      Histogram* h = t % 2 == 0 ? &a : &b;
      for (int i = 0; i < kIters; ++i) h->Record(t * 1000 + i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(a.count() + b.count(),
            static_cast<uint64_t>(kThreads) * kIters);
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_GT(merged.p99(), merged.p50());
}

TEST(MetricsRegistryTest, UnregisterCoversGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.Get("replica.r0.reads")->Add(1);
  registry.GetGauge("replica.r0.lag")->Set(3);
  registry.GetHistogram("replica.r0.read_ns")->Record(100);
  registry.GetGauge("replica.r10.lag")->Set(9);
  EXPECT_EQ(registry.Unregister("replica.r0"), 3u);
  EXPECT_EQ(registry.SnapshotGauges().size(), 1u);
  EXPECT_TRUE(registry.Histograms().empty());
  EXPECT_EQ(registry.GetGauge("replica.r10.lag")->value(), 9);
  // ToString renders a histogram as a percentile summary line.
  registry.GetHistogram("replica.r10.read_ns")->Record(50);
  std::string text = registry.ToString("replica.r10");
  EXPECT_NE(text.find("replica.r10.lag=9"), std::string::npos);
  EXPECT_NE(text.find("replica.r10.read_ns{count=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsExporter
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, WriteOnceRendersPrometheusText) {
  MetricsRegistry registry;
  registry.Get("pm.epochs_committed")->Add(4);
  registry.GetGauge("replica.0.lag_epochs")->Set(2);
  Histogram* h = registry.GetHistogram("pm.epoch_wall_ns");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1000);

  MetricsExporterOptions opt;
  opt.path = ::testing::TempDir() + "/i2mr_metrics.prom";
  opt.registry = &registry;
  MetricsExporter exporter(opt);
  ASSERT_TRUE(exporter.WriteOnce().ok());

  auto text = ReadFileToString(opt.path);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("# TYPE pm_epochs_committed counter"),
            std::string::npos);
  EXPECT_NE(text->find("pm_epochs_committed 4"), std::string::npos);
  EXPECT_NE(text->find("# TYPE replica_0_lag_epochs gauge"),
            std::string::npos);
  EXPECT_NE(text->find("replica_0_lag_epochs 2"), std::string::npos);
  EXPECT_NE(text->find("# TYPE pm_epoch_wall_ns summary"), std::string::npos);
  EXPECT_NE(text->find("pm_epoch_wall_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text->find("pm_epoch_wall_ns_count 100"), std::string::npos);
}

TEST(MetricsExporterTest, MissingPathIsInvalidArgument) {
  MetricsExporter exporter(MetricsExporterOptions{});
  EXPECT_FALSE(exporter.WriteOnce().ok());
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansNestAndExportAsChromeJson) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  collector->Start();
  {
    TRACE_SPAN("outer", "k=%d", 1);
    {
      TRACE_SPAN("inner");
      TRACE_INSTANT("mark", "i=%d", 7);
    }
  }
  collector->Stop();

  auto events = collector->Snapshot();
  const trace::Event* outer = nullptr;
  const trace::Event* inner = nullptr;
  const trace::Event* mark = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
    if (std::string(e.name) == "mark") mark = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(outer->args, "k=1");
  EXPECT_EQ(mark->args, "i=7");
  EXPECT_EQ(mark->dur_ns, -1);  // instant
  // RAII nesting: inner is contained in outer on the same track.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);

  std::string json = collector->ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\",\"name\":\"mark\""),
            std::string::npos);
}

TEST(TraceTest, SessionsDoNotBleed) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  collector->Start();
  { TRACE_SPAN("first_session_span"); }
  collector->Stop();
  collector->Start();
  { TRACE_SPAN("second_session_span"); }
  collector->Stop();
  bool saw_first = false, saw_second = false;
  for (const auto& e : collector->Snapshot()) {
    if (std::string(e.name) == "first_session_span") saw_first = true;
    if (std::string(e.name) == "second_session_span") saw_second = true;
  }
  EXPECT_FALSE(saw_first);
  EXPECT_TRUE(saw_second);
}

TEST(TraceTest, DisabledEmitsNothing) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  ASSERT_FALSE(trace::Enabled());
  { TRACE_SPAN("not_recorded"); }
  collector->Start();
  collector->Stop();
  for (const auto& e : collector->Snapshot()) {
    EXPECT_NE(std::string(e.name), "not_recorded");
  }
}

TEST(TraceTest, WraparoundDropsOldestNotNewest) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  collector->set_ring_capacity(64);
  collector->Start();
  const int kEvents = 200;
  // A fresh thread gets a fresh (small) ring.
  std::thread emitter([] {
    trace::TraceCollector::SetThreadName("wrap-test");
    for (int i = 0; i < kEvents; ++i) TRACE_INSTANT("wrap", "i=%d", i);
  });
  emitter.join();
  collector->Stop();

  int count = 0;
  bool saw_first = false, saw_last = false;
  for (const auto& e : collector->Snapshot()) {
    if (std::string(e.name) != "wrap") continue;
    ++count;
    if (e.args == "i=0") saw_first = true;
    if (e.args == "i=" + std::to_string(kEvents - 1)) saw_last = true;
  }
  EXPECT_LE(count, 64);
  EXPECT_GT(count, 0);
  EXPECT_TRUE(saw_last);    // the ring keeps the newest...
  EXPECT_FALSE(saw_first);  // ...and overwrites the oldest
  EXPECT_GT(collector->approx_dropped(), 0u);
  collector->set_ring_capacity(4096);  // restore the default for later tests
}

TEST(TraceTest, SnapshotWhileTracingIsRaceFree) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  collector->Start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([&stop, t] {
      while (!stop.load()) {
        TRACE_SPAN("contended", "t=%d", t);
        TRACE_INSTANT("tick");
      }
    });
  }
  // Readers race the wrapping writers: torn slots must be dropped, never
  // returned with garbage.
  for (int i = 0; i < 50; ++i) {
    for (const auto& e : collector->Snapshot()) {
      ASSERT_NE(e.name, nullptr);
      ASSERT_GE(e.ts_ns, collector->session_start_ns());
    }
    std::string json = collector->ToChromeJson();
    ASSERT_FALSE(json.empty());
  }
  stop.store(true);
  for (auto& t : emitters) t.join();
  collector->Stop();
}

TEST(TraceTest, ExportWritesParseableFile) {
  trace::TraceCollector* collector = trace::TraceCollector::Get();
  collector->Start();
  { TRACE_SPAN("exported_span"); }
  collector->Stop();
  std::string path = ::testing::TempDir() + "/i2mr_trace.json";
  ASSERT_TRUE(collector->ExportChromeJson(path).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->front(), '{');
  EXPECT_NE(text->find("exported_span"), std::string::npos);
}

TEST(StatusTest, ResourceExhaustedCode) {
  Status st = Status::ResourceExhausted("tenant over quota");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_EQ(st.ToString(), "RESOURCE_EXHAUSTED: tenant over quota");
}

}  // namespace
}  // namespace i2mr
