#include "serving/reshard.h"

#include <algorithm>
#include <utility>

#include "common/codec.h"
#include "common/hash.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/record_file.h"
#include "mrbg/chunk_index.h"

namespace i2mr {
namespace {

/// Length-prefixed KV framing inside one content chunk.
void AppendRecord(std::string* payload, const KV& kv) {
  PutLengthPrefixed(payload, kv.key);
  PutLengthPrefixed(payload, kv.value);
}

Status DecodeRecords(std::string_view payload, std::vector<KV>* out) {
  Decoder dec(payload);
  while (!dec.done()) {
    KV kv;
    if (!dec.GetLengthPrefixed(&kv.key) || !dec.GetLengthPrefixed(&kv.value)) {
      return Status::Corruption("bad record framing in content chunk");
    }
    out->push_back(std::move(kv));
  }
  return Status::OK();
}

}  // namespace

ReshardCoordinator::ReshardCoordinator(ShardRouter* router,
                                       ReshardOptions options)
    : router_(router), options_(std::move(options)) {}

bool ReshardCoordinator::Crashed(const std::string& stage) const {
  if (options_.crash_hook && options_.crash_hook(stage)) return true;
  if (fault::FaultInjector::Armed()) {
    return fault::FaultInjector::Instance()->AtCrashPoint("reshard/" + stage);
  }
  return false;
}

Status ReshardCoordinator::DrainDonors() {
  // Bounded: while appends keep flowing, a writer that outpaces the epoch
  // cadence would starve an until-zero loop forever. The fence closes the
  // append gate for its final pass, under which one pass reaches zero.
  for (int pass = 0; pass < 4; ++pass) {
    if (router_->TotalPending() == 0) return Status::OK();
    // Run() holds coord_mu_ for the whole move.
    auto st = router_->RefreshCoordinatedLocked();
    if (!st.ok()) return st.status();
  }
  return Status::OK();
}

StatusOr<ReshardStats> ReshardCoordinator::Run() {
  WallTimer wall;
  ReshardStats stats;
  const std::string& name = router_->name();
  const std::string& root = router_->root_;
  MetricsRegistry* metrics = router_->metrics();
  HealthRegistry* health = router_->options().health;
  const std::string mbase = "serving." + name + ".reshard.";
  Counter* chunks_total = metrics->Get(mbase + "chunks_total");
  Counter* chunks_reused = metrics->Get(mbase + "chunks_reused");
  Counter* bytes_moved = metrics->Get(mbase + "bytes_moved");
  Counter* dual_journal = metrics->Get(mbase + "dual_journal_deltas");
  Gauge* cutover_gauge = metrics->GetGauge(mbase + "cutover_ms");
  // The counter outlives this move (the registry aggregates across moves);
  // the returned stats cover this move only.
  const int64_t dual_journal_base = dual_journal->value();

  TRACE_SPAN("reshard.run", "router=%s", name.c_str());

  // Hold the epoch coordinator's lock for the whole move, so no barrier
  // commit (and no failover) interleaves with the fence, the transfer or
  // the cutover. The router's coordinator thread just waits; it resumes on
  // the new topology afterwards.
  std::lock_guard<std::mutex> coord(router_->coord_mu_);

  // A refusing router or a lost primary: recover before resharding.
  I2MR_RETURN_IF_ERROR(router_->Refusal(-1, Availability::Op::kWrite));
  if (!router_->bootstrapped()) {
    return Status::FailedPrecondition("router not bootstrapped");
  }

  // ---- Phase 1: plan -------------------------------------------------------
  trace::ScopedSpan plan_span("reshard.plan", "to=%d", options_.new_num_shards);
  const ShardRouter::TopologyView donors = router_->topology();
  const PartitionMap old_map = *donors.map;
  const int n = old_map.num_shards;
  const int m = options_.new_num_shards;
  if (m <= 0) return Status::InvalidArgument("new_num_shards must be > 0");
  if (m == n) {
    return Status::InvalidArgument("fleet already has " + std::to_string(m) +
                                   " shards");
  }
  const PartitionMap new_map{old_map.generation + 1, m};
  stats.old_generation = old_map.generation;
  stats.new_generation = new_map.generation;
  stats.old_shards = n;
  stats.new_shards = m;
  const bool sync =
      router_->options().pipeline.durability == DurabilityMode::kPowerFailure;
  const int num_partitions =
      router_->options().pipeline.spec.num_partitions;

  // Health: donors and destinations are visibly "resharding" for the
  // length of the move; cleared (removed) on every exit path.
  std::vector<std::string> health_components;
  for (int s = 0; s < n; ++s) {
    health_components.push_back("reshard." + name + ".donor" +
                                std::to_string(s));
  }
  for (int d = 0; d < m; ++d) {
    health_components.push_back("reshard." + name + ".dest" +
                                std::to_string(d));
  }
  for (const auto& c : health_components) {
    health->Report(c, HealthState::kDegraded, "resharding");
  }
  struct HealthGuard {
    HealthRegistry* health;
    const std::vector<std::string>* components;
    ~HealthGuard() {
      for (const auto& c : *components) health->Remove(c);
    }
  } health_guard{health, &health_components};

  if (Crashed("plan")) {
    return Status::Aborted("simulated coordinator crash in reshard plan");
  }

  // Staging fleet: M slices under the new generation's shard dirs, opened
  // fresh, never Start()ed, and barred from touching the live PARTMAP.
  ShardRouterOptions staging_opts = router_->options();
  staging_opts.num_shards = m;
  staging_opts.partition_map = new_map;
  staging_opts.persist_partition_map = false;
  staging_opts.reset = true;
  staging_opts.admission = nullptr;  // donors already pay the tenant quota
  auto staging_or = ShardRouter::Open(root, name, std::move(staging_opts));
  if (!staging_or.ok()) return staging_or.status();
  std::unique_ptr<ShardRouter> staging = std::move(staging_or.value());
  // Whatever the staging fleet reported is retired with the move.
  health_components.push_back(staging->availability_.component());
  plan_span.End();

  // ---- Phase 2: fence + arm the dual journal ------------------------------
  // Drain, then verify under the exclusive append gate that nothing is
  // pending; re-drain if an append slipped in between. Writers that
  // outpace the drain would starve that forever, so after a few optimistic
  // passes the residue (only what landed during the last pass) drains with
  // the gate closed. Once the gate is held with zero pending, pin every
  // donor's committed epoch: the pins + every journaled delta after them
  // cover the full history exactly once.
  // Mirror failures are fatal to the move, not to the donor ack: the
  // donor durably owns the delta either way, so a delta that failed to
  // reach the staging logs just means the new generation would be missing
  // an acked write. The flag is read under the cutover's exclusive gate
  // (no mirror can be in flight there) and aborts before the commit
  // point. Outlives journal_guard below, which disarms the capturing
  // lambda first.
  std::atomic<uint64_t> journal_errors{0};
  std::vector<EpochPin> pins;
  {
    std::unique_lock<std::shared_mutex> gate(router_->append_gate_,
                                             std::defer_lock);
    bool fenced = false;
    for (int attempt = 0; attempt < 3 && !fenced; ++attempt) {
      I2MR_RETURN_IF_ERROR(DrainDonors());
      gate.lock();
      fenced = router_->TotalPending() == 0;
      if (!fenced) gate.unlock();
    }
    if (!fenced) {
      gate.lock();
      I2MR_RETURN_IF_ERROR(DrainDonors());
      if (router_->TotalPending() != 0) {
        return Status::Internal(
            "donor fleet would not quiesce under the closed append gate");
      }
    }
    pins.reserve(n);
    for (int s = 0; s < n; ++s) {
      EpochPin pin = donors.pipelines[s]->PinServing();
      if (!pin.valid()) {
        return Status::FailedPrecondition("donor shard " + std::to_string(s) +
                                          " has no committed epoch");
      }
      pins.push_back(std::move(pin));
    }
    ShardRouter* staging_ptr = staging.get();
    std::atomic<uint64_t>* errors = &journal_errors;
    router_->SetJournal([staging_ptr, dual_journal,
                         errors](const DeltaKV& d) {
      auto seq = staging_ptr->Append(d);
      if (seq.ok()) {
        dual_journal->Increment();
      } else {
        errors->fetch_add(1);
        LOG_WARN << "reshard dual-journal append failed (move will abort "
                 << "before cutover): " << seq.status().ToString();
      }
    });
  }
  // Disarm on every non-cutover exit: the journal captures the staging
  // fleet, which dies with this scope.
  struct JournalGuard {
    ShardRouter* router;
    bool active = true;
    void Disarm() {
      if (!active) return;
      std::unique_lock<std::shared_mutex> gate(router->append_gate_);
      router->SetJournal(nullptr);
      active = false;
    }
    ~JournalGuard() { Disarm(); }
  } journal_guard{router_};

  if (Crashed("dual_journal")) {
    return Status::Aborted(
        "simulated coordinator crash after arming the dual journal");
  }

  // ---- Phase 3: transfer ---------------------------------------------------
  WallTimer transfer_timer;
  trace::ScopedSpan transfer_span("reshard.transfer", "donors=%d dests=%d", n,
                                  m);
  const int buckets = std::max(1, options_.buckets_per_stream);
  // streams[kind][dest] -> key-hash buckets of records. kind 0 =
  // structure, 1 = state.
  std::vector<std::vector<std::vector<KV>>> streams[2];
  for (auto& kind : streams) {
    kind.assign(m, std::vector<std::vector<KV>>(buckets));
  }
  auto route = [&](int kind, KV kv) {
    int dest = new_map.ShardOf(kv.key);
    int bucket =
        static_cast<int>(Hash64(kv.key) / 7 % static_cast<uint64_t>(buckets));
    streams[kind][dest][bucket].push_back(std::move(kv));
  };
  for (int s = 0; s < n; ++s) {
    // Structure: the pinned epoch's per-partition structure files hold
    // this shard's full subgraph.
    for (int p = 0; p < num_partitions; ++p) {
      char part[32];
      std::snprintf(part, sizeof(part), "part-%03d", p);
      std::string path = JoinPath(JoinPath(pins[s].dir(), part),
                                  "structure.dat");
      if (!FileExists(path)) continue;
      auto records = ReadRecords(path);
      if (!records.ok()) return records.status();
      for (auto& kv : *records) route(0, std::move(kv));
    }
    // State: the pinned committed result store.
    for (auto& kv : pins[s].store()->Snapshot()) route(1, std::move(kv));
  }

  // Chunk every (dest, kind) stream: buckets are sorted so equal slices
  // byte-match across attempts (content-addressing needs determinism),
  // then cut at chunk_max_bytes.
  ContentChunkStore store;
  I2MR_RETURN_IF_ERROR(
      store.Attach(JoinPath(root, name + ".reshard-chunks")));
  // refs[kind][dest]: the ordered chunk list each destination assembles.
  std::vector<std::vector<ContentChunkRef>> refs[2];
  for (auto& kind : refs) kind.assign(m, {});
  for (int kind = 0; kind < 2; ++kind) {
    for (int d = 0; d < m; ++d) {
      for (auto& bucket : streams[kind][d]) {
        if (bucket.empty()) continue;
        std::sort(bucket.begin(), bucket.end());
        std::string payload;
        auto emit = [&]() -> Status {
          if (payload.empty()) return Status::OK();
          bool reused = false;
          auto ref = store.Put(payload, &reused);
          if (!ref.ok()) return ref.status();
          refs[kind][d].push_back(*ref);
          chunks_total->Increment();
          ++stats.chunks_total;
          if (reused) {
            chunks_reused->Increment();
            ++stats.chunks_reused;
          } else {
            bytes_moved->Add(static_cast<int64_t>(payload.size()));
            stats.bytes_moved += payload.size();
          }
          payload.clear();
          return Status::OK();
        };
        for (const KV& kv : bucket) {
          AppendRecord(&payload, kv);
          if (payload.size() >= options_.chunk_max_bytes) {
            I2MR_RETURN_IF_ERROR(emit());
          }
        }
        I2MR_RETURN_IF_ERROR(emit());
        bucket.clear();
        bucket.shrink_to_fit();
      }
    }
  }
  I2MR_RETURN_IF_ERROR(store.Flush(sync));

  if (Crashed("transfer")) {
    return Status::Aborted(
        "simulated coordinator crash mid-transfer (chunks durable)");
  }

  // Destination assembly: each destination fetches exactly its chunk list
  // from the store (reused chunks were never re-copied) and decodes its
  // slice.
  std::vector<KV> all_structure, all_state;
  for (int d = 0; d < m; ++d) {
    TRACE_SPAN("reshard.transfer.dest", "dest=%d chunks=%zu", d,
               refs[0][d].size() + refs[1][d].size());
    for (int kind = 0; kind < 2; ++kind) {
      std::vector<KV>* out = kind == 0 ? &all_structure : &all_state;
      for (const auto& ref : refs[kind][d]) {
        auto payload = store.Read(ref);
        if (!payload.ok()) return payload.status();
        I2MR_RETURN_IF_ERROR(DecodeRecords(*payload, out));
      }
    }
  }
  stats.transfer_ms = transfer_timer.ElapsedMillis();
  transfer_span.End();

  // Bootstrap the staging fleet from the transferred slices (split again
  // by the new map inside Bootstrap — identical routing by construction).
  WallTimer bootstrap_timer;
  I2MR_RETURN_IF_ERROR(staging->Bootstrap(all_structure, all_state));
  all_structure.clear();
  all_state.clear();
  stats.bootstrap_ms = bootstrap_timer.ElapsedMillis();

  // ---- Phase 4: catch-up ---------------------------------------------------
  // Drain the deltas dual-journaled while the transfer ran. Journaled
  // appends keep flowing in, so an until-zero drain may never converge;
  // pass until the backlog stops shrinking — from there the residue is
  // one pass's arrivals, the best reachable online — and leave that tail
  // to the cutover's gated drain (journal quiet, so it terminates). This
  // keeps the appends-blocked window proportional to the append rate, not
  // to the length of the transfer.
  WallTimer catchup_timer;
  uint64_t prev_pending = UINT64_MAX;
  for (int pass = 0; pass < 16; ++pass) {
    const uint64_t pending = staging->TotalPending();
    if (pending == 0 || pending >= prev_pending) break;
    prev_pending = pending;
    auto st = staging->RefreshCoordinated();
    if (!st.ok()) return st.status();
  }
  stats.catchup_ms = catchup_timer.ElapsedMillis();

  // ---- Phase 5: cutover ----------------------------------------------------
  trace::ScopedSpan cutover_span("reshard.cutover", "generation=%llu",
                                 static_cast<unsigned long long>(
                                     new_map.generation));
  WallTimer cutover_timer;
  {
    std::unique_lock<std::shared_mutex> gate(router_->append_gate_);
    // The gate is exclusive: no mirror is in flight, so the error count
    // is final. Any delta a donor acked but the staging fleet missed
    // would be permanently absent from the new generation past the flip —
    // abort instead; the old map still serves every acked write.
    const uint64_t mirror_failures = journal_errors.load();
    if (mirror_failures != 0) {
      return Status::Aborted(
          "reshard aborted before cutover: " +
          std::to_string(mirror_failures) +
          " dual-journal append(s) failed to mirror acked deltas to the "
          "destination fleet; the old map still serves");
    }
    // Tail drain: every delta accepted before the gate closed is in the
    // staging logs; consume them so the flip loses nothing.
    I2MR_RETURN_IF_ERROR(staging->DrainAll());

    if (Crashed("flip")) {
      return Status::Aborted(
          "simulated coordinator crash at cutover before the marker");
    }
    // Any in-process failure between the marker write and the topology
    // swap leaves a durable decision the live fleet contradicts: serving
    // (and acking) on the old map would be silently rolled forward over
    // by RecoverReshard on reopen. Revoke the decision — retire the
    // marker and make sure the PARTMAP still names the old map — so the
    // old generation stands consistently; if revocation itself fails,
    // fail the router (appends and lookups refused until the roll-forward
    // reopen), exactly like the flip_marker crash point.
    auto revoke_or_fail = [&](const Status& cause) {
      Status revoked = RemoveAll(ShardRouter::ReshardMarkerPath(root, name));
      if (revoked.ok() && sync) revoked = SyncDir(root);
      if (revoked.ok()) {
        // The PARTMAP publish uses tmp + rename; the live record is
        // untouched unless the rename landed (e.g. only the directory
        // sync failed). Restore it only in that case.
        auto on_disk = PartitionMap::Load(PartitionMap::RecordPath(root, name));
        if (!on_disk.ok() || *on_disk != old_map) {
          revoked = PartitionMap::Save(PartitionMap::RecordPath(root, name),
                                       old_map, sync);
        }
      }
      if (revoked.ok()) {
        LOG_WARN << "reshard " << name << ": cutover failed after the marker "
                 << "write (" << cause.ToString()
                 << "); decision revoked, the old map stands";
      } else {
        router_->FailUntilReopen(
            "reshard cutover to generation " +
            std::to_string(new_map.generation) +
            " failed after its marker write (" + cause.ToString() +
            ") and the decision could not be revoked (" + revoked.ToString() +
            ")");
      }
    };
    // Commit point: the durable marker carries the new map. From here a
    // crash rolls FORWARD (RecoverReshard installs it on reopen).
    Status marked = PartitionMap::Save(
        ShardRouter::ReshardMarkerPath(root, name), new_map, sync);
    if (!marked.ok()) {
      // The save's own failure can still have left a durable marker (tmp
      // + rename, with only the directory sync failing); revoke it.
      revoke_or_fail(marked);
      return marked;
    }
    if (Crashed("flip_marker")) {
      // In-process simulation of dying right after the decision: the old
      // topology must not serve new reads that recovery would contradict.
      const Status crashed = Status::Aborted(
          "simulated coordinator crash after the reshard marker");
      router_->FailUntilReopen(crashed.ToString());
      return crashed;
    }
    Status published =
        PartitionMap::Save(PartitionMap::RecordPath(root, name), new_map, sync);
    if (!published.ok()) {
      revoke_or_fail(published);
      return published;
    }
    router_->SetJournal(nullptr);
    journal_guard.active = false;  // cleared under this gate hold
    router_->AdoptTopology(std::move(staging->shards_),
                           std::move(staging->exchange_), staging->map_,
                           std::move(staging->shard_epochs_committed_),
                           std::move(staging->shard_deltas_applied_));
    Status cleared =
        RemoveAll(ShardRouter::ReshardMarkerPath(root, name));
    if (cleared.ok() && sync) cleared = SyncDir(root);
    if (!cleared.ok()) {
      // The cutover stands (PARTMAP already names the new map; recovery
      // re-installing the same map is idempotent). Only log.
      LOG_WARN << "reshard " << name << ": marker not retired ("
               << cleared.ToString() << "); reopen will re-install the map";
    }
  }
  stats.cutover_ms = cutover_timer.ElapsedMillis();
  cutover_gauge->Set(static_cast<int64_t>(stats.cutover_ms));
  cutover_span.End();

  stats.dual_journal_deltas =
      static_cast<uint64_t>(dual_journal->value() - dual_journal_base);
  stats.wall_ms = wall.ElapsedMillis();
  LOG_INFO << "reshard " << name << ": generation " << old_map.generation
           << " (" << n << " shards) -> " << new_map.generation << " (" << m
           << " shards); " << stats.chunks_total << " chunks ("
           << stats.chunks_reused << " reused), " << stats.bytes_moved
           << " bytes moved, " << stats.dual_journal_deltas
           << " deltas dual-journaled, cutover " << stats.cutover_ms << "ms";
  return stats;
}

}  // namespace i2mr
