#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "io/env.h"

namespace i2mr {
namespace trace {

namespace internal {

std::atomic<bool> g_enabled{false};

ThreadRing::ThreadRing(uint32_t tid, size_t capacity_pow2)
    : tid_(tid), cap_(capacity_pow2), slots_(new Slot[capacity_pow2]) {}

void ThreadRing::Emit(const char* name, int64_t ts_ns, int64_t dur_ns,
                      const char* args, size_t arg_len) {
  const uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & (cap_ - 1)];
  // Seqlock writer: odd marks the slot in flight; the release fence orders
  // the odd mark before the payload for a racing reader.
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.name.store(name, std::memory_order_relaxed);
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  if (arg_len > kArgCapacity) arg_len = kArgCapacity;
  for (size_t i = 0; i < arg_len; ++i) {
    s.args[i].store(args[i], std::memory_order_relaxed);
  }
  s.arg_len.store(static_cast<uint8_t>(arg_len), std::memory_order_relaxed);
  s.seq.store(2 * h + 2, std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

void ThreadRing::Collect(int64_t min_ts_ns, std::vector<Event>* out) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t lo = head > cap_ ? head - cap_ : 0;
  for (uint64_t e = lo; e < head; ++e) {
    const Slot& s = slots_[e & (cap_ - 1)];
    const uint64_t expect = 2 * e + 2;
    if (s.seq.load(std::memory_order_acquire) != expect) continue;
    Event ev;
    ev.tid = tid_;
    ev.name = s.name.load(std::memory_order_relaxed);
    ev.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    ev.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
    const size_t len =
        std::min<size_t>(s.arg_len.load(std::memory_order_relaxed),
                         kArgCapacity);
    char buf[kArgCapacity];
    for (size_t i = 0; i < len; ++i) {
      buf[i] = s.args[i].load(std::memory_order_relaxed);
    }
    // Seqlock reader: the acquire fence orders the payload loads before
    // the re-check; a slot overwritten mid-read fails it and is dropped
    // (ring wraparound drops the oldest events, never the newest).
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != expect) continue;
    if (ev.name == nullptr || ev.ts_ns < min_ts_ns) continue;
    ev.args.assign(buf, len);
    out->push_back(std::move(ev));
  }
}

}  // namespace internal

namespace {

thread_local std::string t_pending_thread_name;

/// Owns the thread's ring pointer; the destructor recycles the ring when
/// the thread exits so short-lived threads (shard fan-outs, exchange
/// transfers) don't grow the ring set without bound.
struct RingHandle {
  internal::ThreadRing* ring = nullptr;
  ~RingHandle();
};

thread_local RingHandle t_ring;

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

struct ThreadRingHandle {
  static void Release(internal::ThreadRing* ring) {
    TraceCollector::Get()->ReleaseRing(ring);
  }
};

RingHandle::~RingHandle() {
  if (ring != nullptr) ThreadRingHandle::Release(ring);
}

TraceCollector* TraceCollector::Get() {
  static TraceCollector* collector = new TraceCollector();  // never freed
  return collector;
}

void TraceCollector::Start() {
  session_start_ns_.store(NowNanos(), std::memory_order_relaxed);
  internal::g_enabled.store(true, std::memory_order_relaxed);
}

void TraceCollector::Stop() {
  internal::g_enabled.store(false, std::memory_order_relaxed);
}

int64_t TraceCollector::session_start_ns() const {
  return session_start_ns_.load(std::memory_order_relaxed);
}

void TraceCollector::set_ring_capacity(size_t events) {
  size_t cap = 64;
  while (cap < events) cap <<= 1;
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = cap;
  // Undersized recycled rings would resurrect the old capacity.
  free_rings_.erase(
      std::remove_if(free_rings_.begin(), free_rings_.end(),
                     [cap](internal::ThreadRing* r) {
                       return r->capacity() != cap;
                     }),
      free_rings_.end());
}

internal::ThreadRing* TraceCollector::RingForThisThread() {
  if (t_ring.ring != nullptr) return t_ring.ring;
  std::lock_guard<std::mutex> lock(mu_);
  internal::ThreadRing* ring;
  if (!free_rings_.empty()) {
    ring = free_rings_.back();
    free_rings_.pop_back();
  } else {
    rings_.push_back(std::make_unique<internal::ThreadRing>(
        static_cast<uint32_t>(rings_.size()), ring_capacity_));
    ring = rings_.back().get();
  }
  if (!t_pending_thread_name.empty()) {
    thread_names_[ring->tid()] = t_pending_thread_name;
  }
  t_ring.ring = ring;
  return ring;
}

void TraceCollector::ReleaseRing(internal::ThreadRing* ring) {
  std::lock_guard<std::mutex> lock(mu_);
  free_rings_.push_back(ring);
}

void TraceCollector::SetThreadName(const std::string& name) {
  t_pending_thread_name = name;
  if (t_ring.ring != nullptr) {
    TraceCollector* c = Get();
    std::lock_guard<std::mutex> lock(c->mu_);
    c->thread_names_[t_ring.ring->tid()] = name;
  }
}

std::vector<Event> TraceCollector::Snapshot() const {
  const int64_t min_ts = session_start_ns();
  std::vector<Event> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) ring->Collect(min_ts, &out);
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;  // enclosing span first at equal starts
  });
  return out;
}

uint64_t TraceCollector::approx_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const uint64_t emitted = ring->emitted();
    if (emitted > ring->capacity()) dropped += emitted - ring->capacity();
  }
  return dropped;
}

std::string TraceCollector::ToChromeJson() const {
  const int64_t t0 = session_start_ns();
  std::vector<Event> events = Snapshot();
  std::map<uint32_t, std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = thread_names_;
  }
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  for (const auto& [tid, name] : names) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", tid, JsonEscape(name).c_str());
    out += buf;
    first = false;
  }
  for (const Event& ev : events) {
    const double ts_us = static_cast<double>(ev.ts_ns - t0) / 1e3;
    if (ev.dur_ns >= 0) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f",
                    first ? "" : ",\n", JsonEscape(ev.name).c_str(), ev.tid,
                    ts_us, static_cast<double>(ev.dur_ns) / 1e3);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f",
                    first ? "" : ",\n", JsonEscape(ev.name).c_str(), ev.tid,
                    ts_us);
    }
    out += buf;
    if (!ev.args.empty()) {
      out += ",\"args\":{\"detail\":\"" + JsonEscape(ev.args) + "\"}";
    }
    out += "}";
    first = false;
  }
  out += "\n]}\n";
  return out;
}

Status TraceCollector::ExportChromeJson(const std::string& path) const {
  return ReplaceFileDurably(path, ToChromeJson(), /*sync=*/false);
}

bool StartFromEnv() {
  const char* path = std::getenv("I2MR_TRACE_JSON");
  if (path == nullptr || path[0] == '\0') return false;
  TraceCollector::Get()->Start();
  return true;
}

Status ExportFromEnv() {
  const char* path = std::getenv("I2MR_TRACE_JSON");
  if (path == nullptr || path[0] == '\0') return Status::OK();
  return TraceCollector::Get()->ExportChromeJson(path);
}

void EmitInstant(const char* name) {
  if (!Enabled()) return;
  TraceCollector::Get()->RingForThisThread()->Emit(name, NowNanos(), -1,
                                                   nullptr, 0);
}

void EmitInstantf(const char* name, const char* fmt, ...) {
  if (!Enabled()) return;
  char buf[internal::kArgCapacity];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) n = 0;
  TraceCollector::Get()->RingForThisThread()->Emit(
      name, NowNanos(), -1, buf,
      std::min<size_t>(static_cast<size_t>(n), sizeof(buf)));
}

void ScopedSpan::Begin(const char* name) {
  name_ = name;
  arg_len_ = 0;
  // Pin the thread's ring NOW, not at first emit: a span is written at
  // destruction, so if the ring were acquired lazily, two overlapping
  // short-lived threads could emit sequentially into the same recycled
  // ring and interleave overlapping spans on one track. Holding the ring
  // while a span is open keeps every track's events properly nested (a
  // ring is only recycled at thread exit, after all its spans ended).
  TraceCollector::Get()->RingForThisThread();
  start_ns_ = NowNanos();
}

void ScopedSpan::BeginV(const char* name, const char* fmt, va_list ap) {
  name_ = name;
  int n = std::vsnprintf(args_, sizeof(args_), fmt, ap);
  if (n < 0) n = 0;
  arg_len_ = static_cast<uint8_t>(
      std::min<size_t>(static_cast<size_t>(n), sizeof(args_)));
  TraceCollector::Get()->RingForThisThread();  // see Begin()
  start_ns_ = NowNanos();
}

void ScopedSpan::Finish() {
  // Emitted even if tracing was stopped mid-span: the span began inside
  // the session, and snapshot filtering is by start timestamp.
  const int64_t dur = NowNanos() - start_ns_;
  TraceCollector::Get()->RingForThisThread()->Emit(name_, start_ns_, dur,
                                                   args_, arg_len_);
}

}  // namespace trace
}  // namespace i2mr
