#include "serving/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/codec.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/fault_env.h"

namespace i2mr {
namespace {

/// Safety cap on exchange rounds per coordinated epoch. Like the engine's
/// max_iterations, hitting it logs a warning and commits the best state
/// reached instead of failing the epoch.
constexpr int kMaxExchangeRounds = 256;

/// Coordinated epochs slower than this log one structured `slow_epoch`
/// WARN line with the stage breakdown inline, so a tail-latency epoch
/// explains itself without a trace attached.
constexpr double kSlowEpochMs = 1000;

std::string PipelineDirOf(const std::string& root, const std::string& name,
                          const PartitionMap& map, int s) {
  return JoinPath(JoinPath(root, map.ShardDirName(s)), "pipeline/" + name);
}

/// One thread per shard — the coordinated rounds and the barrier phases
/// all fan out this way, like Bootstrap/DrainAll always have.
void ForEachShard(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&fn, s] {
      trace::TraceCollector::SetThreadName("shard-" + std::to_string(s));
      fn(s);
    });
  }
  for (auto& t : threads) t.join();
}

Status FirstError(const std::vector<Status>& status) {
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// One RefreshRound on every shard, in parallel: round 0 (`first`) and the
/// bootstrap boundary pass run every shard; exchange rounds (`inbound`
/// set) run only the shards something was routed to.
Status RefreshEachShard(const std::vector<Pipeline*>& pipelines, bool first,
                        const std::vector<std::vector<DeltaEdge>>* inbound,
                        std::vector<Pipeline::RoundResult>* results) {
  const int n = static_cast<int>(pipelines.size());
  std::vector<Status> status(n);
  results->assign(n, Pipeline::RoundResult{});
  const std::vector<DeltaEdge> none;
  ForEachShard(n, [&](int s) {
    if (inbound != nullptr && (*inbound)[s].empty()) return;
    auto rr = pipelines[s]->RefreshRound(
        first, inbound != nullptr ? (*inbound)[s] : none);
    if (!rr.ok()) {
      status[s] = rr.status();
      return;
    }
    (*results)[s] = std::move(*rr);
  });
  return FirstError(status);
}

void AddStageMs(const Pipeline::RoundResult& rr,
                ShardRouter::CoordinatedEpochStats* stats) {
  stats->map_ms += rr.map_ms;
  stats->shuffle_ms += rr.shuffle_ms;
  stats->sort_ms += rr.sort_ms;
  stats->reduce_ms += rr.reduce_ms;
  stats->merge_ms += rr.merge_ms;
}

}  // namespace

ShardRouter::ShardRouter(std::string name, std::string root,
                         ShardRouterOptions options)
    : name_(std::move(name)),
      root_(std::move(root)),
      options_(std::move(options)),
      availability_(options_.health,
                    options_.persist_partition_map
                        ? "serving." + name_
                        : "reshard." + name_ + ".staging",
                    &Status::FailedPrecondition) {}

ShardRouter::~ShardRouter() { Stop(); }

std::string ShardRouter::BarrierPathFor(const std::string& root,
                                        const std::string& name,
                                        const PartitionMap& map) {
  if (map.generation == 0) return JoinPath(root, name + ".BARRIER");
  return JoinPath(root, name + ".g" + std::to_string(map.generation) +
                            ".BARRIER");
}

std::string ShardRouter::ReshardMarkerPath(const std::string& root,
                                           const std::string& name) {
  return JoinPath(root, name + ".RESHARD");
}

Status ShardRouter::RecoverReshard(const std::string& root,
                                   const std::string& name, bool sync) {
  const std::string marker = ReshardMarkerPath(root, name);
  if (!FileExists(marker)) return Status::OK();
  // The marker is written only after the destination fleet durably
  // committed its state, so its presence means the new map was decided:
  // roll forward by publishing it, exactly like the barrier record's
  // roll-forward (PR 9).
  auto decided = PartitionMap::Load(marker);
  if (!decided.ok()) return decided.status();
  I2MR_RETURN_IF_ERROR(
      PartitionMap::Save(PartitionMap::RecordPath(root, name), *decided, sync));
  I2MR_RETURN_IF_ERROR(RemoveAll(marker));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(root));
  LOG_INFO << "serving " << name << ": rolled interrupted reshard forward to "
           << "generation " << decided->generation << " (" << decided->num_shards
           << " shards)";
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& root, const std::string& name,
    ShardRouterOptions options) {
  if (options.num_shards <= 0 && options.partition_map.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be > 0");
  }
  if (!options.cross_shard_exchange) {
    return Status::InvalidArgument(
        "cross_shard_exchange=false is no longer supported: coordinated "
        "refresh is the only multi-shard mode");
  }
  if (options.metrics == nullptr) options.metrics = MetricsRegistry::Default();
  if (options.health == nullptr) options.health = HealthRegistry::Default();
  // Shard pipelines report their own degraded read-only mode through the
  // same registry unless the caller wired a different one explicitly.
  if (options.pipeline.health == nullptr) {
    options.pipeline.health = options.health;
  }
  I2MR_RETURN_IF_ERROR(CreateDirs(root));
  const bool sync =
      options.pipeline.durability == DurabilityMode::kPowerFailure;

  // Resolve the authoritative partition map. Precedence: an explicit
  // internal map (a reshard's staging fleet) > the durable PARTMAP record
  // (reset=false: the on-disk shards were partitioned by it, whatever
  // shard count the options carry) > {generation 0, options.num_shards}.
  PartitionMap map{0, options.num_shards};
  const std::string map_path = PartitionMap::RecordPath(root, name);
  if (options.partition_map.num_shards > 0) {
    map = options.partition_map;
  } else if (options.persist_partition_map && !options.reset) {
    // An interrupted cutover first: a durable RESHARD marker decides for
    // the new map before we read the record.
    I2MR_RETURN_IF_ERROR(RecoverReshard(root, name, sync));
    if (FileExists(map_path)) {
      auto loaded = PartitionMap::Load(map_path);
      if (!loaded.ok()) return loaded.status();
      if (*loaded != map) {
        LOG_INFO << "serving " << name << ": PARTMAP record (generation "
                 << loaded->generation << ", " << loaded->num_shards
                 << " shards) overrides options.num_shards="
                 << options.num_shards;
      }
      map = *loaded;
    }
  }
  if (map.num_shards > 1 && options.pipeline.spec.projector != nullptr &&
      options.pipeline.spec.projector->dep_type() == DepType::kAllToOne) {
    // Global reduce state cannot partition by key; such apps run on a
    // one-shard map.
    return Status::InvalidArgument(
        "an all-to-one app runs on one shard, not " +
        std::to_string(map.num_shards));
  }
  options.num_shards = map.num_shards;
  options.pipeline.generation = map.generation;
  if (options.persist_partition_map) {
    if (options.reset) {
      // Fresh deployment: retire this computation's reshard leftovers
      // (records are name-qualified; shard dirs are wiped per cluster).
      I2MR_RETURN_IF_ERROR(RemoveAll(ReshardMarkerPath(root, name)));
      I2MR_RETURN_IF_ERROR(RemoveAll(JoinPath(root, name + ".reshard-chunks")));
      map = PartitionMap{0, options.num_shards};
    }
    if (options.reset || !FileExists(map_path)) {
      I2MR_RETURN_IF_ERROR(PartitionMap::Save(map_path, map, sync));
    }
  }

  std::unique_ptr<ShardRouter> router(
      new ShardRouter(name, root, std::move(options)));
  router->map_ = std::make_shared<const PartitionMap>(map);
  const ShardRouterOptions& opts = router->options_;
  if (opts.reset) {
    // Fresh deployment: a leftover barrier record belongs to wiped state.
    I2MR_RETURN_IF_ERROR(RemoveAll(BarrierPathFor(root, name, map)));
  } else {
    // A crash inside a barrier commit left the decision record behind:
    // roll every shard back to the previous epoch before the pipelines
    // open, so no reader (and no replay) ever observes a mixed vector.
    I2MR_RETURN_IF_ERROR(RecoverBarrier(root, name, opts, map));
  }
  for (int s = 0; s < map.num_shards; ++s) {
    // Each shard's cluster root is disjoint by construction; reset=false
    // re-attaches all of them for crash recovery (collision-free now that
    // LocalCluster job dirs are instance-namespaced).
    auto shard = router->OpenShard(JoinPath(root, map.ShardDirName(s)),
                                   opts.reset, map, s);
    if (!shard.ok()) return shard.status();
    router->shards_.push_back(std::move(*shard));
  }
  router->ResetShardAvailability();
  router->deltas_routed_ =
      opts.metrics->Get("serving." + name + ".router.deltas_routed");
  router->lookups_routed_ =
      opts.metrics->Get("serving." + name + ".router.lookups_routed");
  router->epoch_wall_hist_ =
      opts.metrics->GetHistogram("serving." + name + ".epoch_wall_ns");
  router->epoch_failures_ =
      opts.metrics->Get("serving." + name + ".epoch_failures");
  router->exchange_ = std::make_unique<CrossShardExchange>(
      map.num_shards, [map](std::string_view key) { return map.ShardOf(key); },
      opts.cost, opts.metrics, "serving." + name + ".exchange");
  for (int s = 0; s < map.num_shards; ++s) {
    router->shard_epochs_committed_.push_back(opts.metrics->Get(
        map.ShardMetricsPrefix(name, s) + ".epochs_committed"));
    router->shard_deltas_applied_.push_back(opts.metrics->Get(
        map.ShardMetricsPrefix(name, s) + ".deltas_applied"));
  }
  return router;
}

StatusOr<std::unique_ptr<ShardRouter::Shard>> ShardRouter::OpenShard(
    const std::string& cluster_root, bool reset, const PartitionMap& map,
    int s, bool writable) const {
  auto shard = std::make_unique<Shard>();
  shard->cluster = std::make_unique<LocalCluster>(
      cluster_root, options_.workers_per_shard, options_.cost, reset);
  PipelineOptions popts = options_.pipeline;
  if (map.num_shards > 1) {
    // The engine-boundary hook: this shard owns exactly the keys the
    // partition map assigns to it, so map emissions to any other key are
    // captured for the exchange instead of reducing here as phantoms.
    // The map is captured by value: a shard slice belongs to exactly one
    // generation, and keeps its own-map semantics even while a reshard
    // builds the next generation alongside.
    popts.spec.owns_key = [map, s](std::string_view key) {
      return map.ShardOf(key) == s;
    };
  }
  popts.generation = map.generation;
  auto pipeline =
      writable ? Pipeline::Open(shard->cluster.get(), name_, std::move(popts))
               : Pipeline::OpenReadOnly(shard->cluster.get(), name_,
                                        std::move(popts));
  if (!pipeline.ok()) return pipeline.status();
  shard->pipeline = std::move(*pipeline);
  return shard;
}

int ShardRouter::ShardOf(std::string_view key) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return map_->ShardOf(key);
}

PartitionMap ShardRouter::partition_map() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return *map_;
}

ShardRouter::TopologyView ShardRouter::topology() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  TopologyView view;
  view.map = map_;
  view.pipelines.reserve(shards_.size());
  for (const auto& shard : shards_) {
    view.pipelines.push_back(shard->pipeline.get());
  }
  return view;
}

int ShardRouter::num_shards() const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return map_->num_shards;
}

Pipeline* ShardRouter::shard(int i) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return shards_[i]->pipeline.get();
}

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

Status ShardRouter::Bootstrap(const std::vector<KV>& structure,
                              const std::vector<KV>& initial_state) {
  std::lock_guard<std::mutex> lock(coord_mu_);
  const std::shared_ptr<const PartitionMap> map = topology().map;
  const int n = map->num_shards;
  std::vector<std::vector<KV>> structure_parts(n), state_parts(n);
  for (const auto& kv : structure) {
    structure_parts[map->ShardOf(kv.key)].push_back(kv);
  }
  for (const auto& kv : initial_state) {
    state_parts[map->ShardOf(kv.key)].push_back(kv);
  }
  // Round 0 is every shard's full computation over its own subgraph; its
  // emissions to non-owned keys are captured, not reduced. Epoch 0 then
  // lands on every shard atomically.
  CoordinatedEpochStats stats;
  return RunEpochLocked(
      /*epoch=*/0,
      [&](int s, Pipeline* pipeline) {
        return pipeline->BootstrapPrepare(structure_parts[s], state_parts[s]);
      },
      &stats);
}

bool ShardRouter::bootstrapped() const {
  TopologyView view = topology();
  for (Pipeline* pipeline : view.pipelines) {
    if (!pipeline->bootstrapped()) return false;
  }
  return !view.pipelines.empty();
}

// ---------------------------------------------------------------------------
// Routed ingestion + lookups
// ---------------------------------------------------------------------------

Status ShardRouter::Refusal(int shard, Availability::Op op) const {
  I2MR_RETURN_IF_ERROR(availability_.Check(op));
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  for (int s = 0; s < static_cast<int>(shard_availability_.size()); ++s) {
    if (shard < 0 || shard == s) {
      I2MR_RETURN_IF_ERROR(shard_availability_[s]->Check(op));
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> ShardRouter::Append(const DeltaKV& delta) {
  // The gate is shared for normal traffic; a reshard holds it exclusive
  // only for the watermark fence and the final cutover, so appends pause
  // for microseconds-to-one-epoch, never for the whole move. A lost
  // primary is marked (MarkPrimaryLost) and replaced (PromotePrimary) only
  // while the gate is held exclusive, so the view taken here and the
  // refusal asked next see the same slice.
  std::shared_lock<std::shared_mutex> gate(append_gate_);
  TopologyView view = topology();
  const int s = view.map->ShardOf(delta.key);
  I2MR_RETURN_IF_ERROR(Refusal(s, Availability::Op::kWrite));
  auto seq = view.pipelines[s]->Append(delta);
  // Successes only: a failed log append was not routed into any shard.
  if (seq.ok()) {
    deltas_routed_->Increment();
    // Mid-reshard: dual-journal the delta to the destination fleet (the
    // sink routes by the next generation's map). The mirror runs
    // synchronously before the ack, so appends the caller serializes
    // reach the staging logs in that order; only appends racing on the
    // SAME key can land in the donor log and the staging log in opposite
    // orders (no order was promised to the racing callers to begin with).
    if (journal_) journal_(delta);
  }
  return seq;
}

Status ShardRouter::AppendBatch(const std::vector<DeltaKV>& deltas) {
  std::shared_lock<std::shared_mutex> gate(append_gate_);
  TopologyView view = topology();
  const int n = view.map->num_shards;
  std::vector<std::vector<DeltaKV>> parts(n);
  for (const auto& d : deltas) parts[view.map->ShardOf(d.key)].push_back(d);
  std::vector<int> targets;
  for (int s = 0; s < n; ++s) {
    if (parts[s].empty()) continue;
    I2MR_RETURN_IF_ERROR(Refusal(s, Availability::Op::kWrite));
    targets.push_back(s);
  }
  auto journal_part = [this](const std::vector<DeltaKV>& part) {
    if (!journal_) return;
    for (const auto& d : part) journal_(d);
  };
  if (targets.size() == 1) {
    auto seq = view.pipelines[targets[0]]->AppendBatch(parts[targets[0]]);
    if (!seq.ok()) return seq.status();
    deltas_routed_->Add(static_cast<int64_t>(parts[targets[0]].size()));
    journal_part(parts[targets[0]]);
    return Status::OK();
  }
  // Shard logs are independent: overlap the per-shard appends so a synced
  // (kPowerFailure) batch pays max(shard fsync), not sum over shards.
  std::vector<Status> status(targets.size());
  std::vector<std::thread> threads;
  threads.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    threads.emplace_back([&view, i, &targets, &parts, &status] {
      auto seq = view.pipelines[targets[i]]->AppendBatch(parts[targets[i]]);
      status[i] = seq.ok() ? Status::OK() : seq.status();
    });
  }
  for (auto& t : threads) t.join();
  // Count only the sub-batches whose append succeeded (a failed shard's
  // records never reached its log).
  int64_t routed = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (status[i].ok()) {
      routed += static_cast<int64_t>(parts[targets[i]].size());
      journal_part(parts[targets[i]]);
    }
  }
  if (routed > 0) deltas_routed_->Add(routed);
  return FirstError(status);
}

StatusOr<std::string> ShardRouter::Lookup(const std::string& key) const {
  TopologyView view = topology();
  const int s = view.map->ShardOf(key);
  I2MR_RETURN_IF_ERROR(Refusal(s, Availability::Op::kRead));
  auto result = view.pipelines[s]->Lookup(key);
  // An answered lookup — including a definitive NotFound — was served; a
  // shard that failed to answer (e.g. not bootstrapped) was not.
  if (result.ok() || result.status().IsNotFound()) {
    lookups_routed_->Increment();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Epoch scheduling
// ---------------------------------------------------------------------------

void ShardRouter::Start() {
  bool expected = false;
  if (!coordinating_.compare_exchange_strong(expected, true)) return;
  // One coordinator instead of per-shard schedulers: epochs must advance
  // in lockstep or the exchange would fold contributions into the wrong
  // epoch. Consults the tenant's epoch quota once per coordinated epoch.
  coordinator_ = std::thread([this] {
    const auto poll = std::chrono::microseconds(
        static_cast<int64_t>(options_.poll_interval_ms * 1000));
    // Failure backoff: consecutive failed coordinated epochs (a sick disk
    // fails every tick) back off exponentially instead of hammering the
    // same fault at poll rate. Sliced sleeps keep Stop() responsive.
    int failures = 0;
    auto backoff_sleep = [this](int64_t ms) {
      const int64_t deadline = NowNanos() + ms * 1000000;
      while (coordinating_.load() && NowNanos() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    };
    while (coordinating_.load()) {
      const std::vector<Pipeline*> pipelines = topology().pipelines;
      const bool ready =
          std::any_of(pipelines.begin(), pipelines.end(),
                      [](Pipeline* p) { return p->EpochReady(); });
      // A pending roll-forward counts as ready even though the router
      // refuses everything else: RefreshCoordinated resumes the
      // interrupted barrier before (or instead of) taking new work. A
      // lost primary waits for its promotion.
      const bool resumable = pending_flip_epoch_.load() != 0;
      if ((ready && Refusal(-1, Availability::Op::kWrite).ok()) ||
          resumable) {
        bool admitted = resumable || options_.admission == nullptr ||
                        options_.tenant.empty() ||
                        options_.admission->AdmitEpoch(options_.tenant);
        if (admitted) {
          std::unique_lock<std::mutex> lock(coord_mu_);
          auto st = RefreshCoordinatedLocked();
          if (!st.ok()) {
            ++failures;
            epoch_failures_->Increment();
            int64_t backoff_ms = std::min<int64_t>(
                5000, 100LL << std::min(failures - 1, 20));
            LOG_WARN << "serving " << name_ << ": coordinated epoch failed ("
                     << st.status().ToString() << "); backing off "
                     << backoff_ms << "ms";
            // Backing off refuses nothing; a refusal the failure left
            // (awaiting roll-forward, or reopen) is the stronger state.
            if (availability_.refuses() == Availability::Refuses::kNothing) {
              availability_.Set(HealthState::kDegraded,
                                Availability::Refuses::kNothing,
                                st.status().ToString());
            }
            lock.unlock();
            backoff_sleep(backoff_ms);
          } else {
            if (failures > 0) availability_.Clear();
            failures = 0;
          }
        }
      }
      std::this_thread::sleep_for(poll);
    }
  });
}

void ShardRouter::Stop() {
  if (coordinating_.exchange(false)) {
    if (coordinator_.joinable()) coordinator_.join();
  }
}

Status ShardRouter::DrainAll() {
  while (true) {
    auto st = RefreshCoordinated();
    if (!st.ok()) return st.status();
    if (TotalPending() == 0) return Status::OK();
  }
}

uint64_t ShardRouter::TotalPending() const {
  uint64_t total = 0;
  for (Pipeline* pipeline : topology().pipelines) total += pipeline->pending();
  return total;
}

std::vector<uint64_t> ShardRouter::CommittedEpochs() const {
  TopologyView view = topology();
  std::vector<uint64_t> epochs;
  epochs.reserve(view.pipelines.size());
  for (Pipeline* pipeline : view.pipelines) {
    epochs.push_back(pipeline->committed_epoch());
  }
  return epochs;
}

// ---------------------------------------------------------------------------
// Coordinated epochs: exchange rounds + barrier commit
// ---------------------------------------------------------------------------

void ShardRouter::MarkAllDirty() {
  for (Pipeline* pipeline : topology().pipelines) pipeline->AbortCoordinated();
}

StatusOr<int> ShardRouter::RunExchangeRounds(
    const TopologyView& view, std::vector<std::vector<DeltaEdge>> offers,
    CoordinatedEpochStats* stats) {
  CrossShardExchange* exchange = exchange_.get();
  const int n = view.map->num_shards;
  const double eps = options_.pipeline.spec.convergence_epsilon;
  int rounds = 0;
  bool absorb_and_stop = false;
  while (true) {
    bool any_offer = false;
    for (int s = 0; s < n; ++s) {
      if (offers[s].empty()) continue;
      any_offer = true;
      I2MR_RETURN_IF_ERROR(exchange->Offer(s, std::move(offers[s])));
      offers[s].clear();
    }
    // No shard exported anything new: exact joint fixpoint (SSSP/ConComp
    // land here; their converged exports stop changing bit for bit).
    if (!any_offer) break;
    TRACE_SPAN("exchange.round", "round=%d", rounds);
    auto inbound = exchange->Route();
    for (const auto& batch : inbound) stats->edges_exchanged += batch.size();
    const bool absorb = absorb_and_stop || rounds >= kMaxExchangeRounds;
    if (absorb) {
      // The previous round's refreshes moved state by at most the
      // convergence epsilon (or we hit the safety cap — same contract as
      // the engine silently stopping at max_iterations), so these final
      // exports carry only sub-epsilon changes. Absorb them: fold AND
      // re-reduce on the owners, so the state that commits already
      // includes every routed contribution — no re-reduce obligation
      // survives the epoch (it would live only in memory and be lost to
      // a restart, or never absorbed on an idle fleet). The absorb
      // round's own re-exports are dropped; receivers pick those values
      // up when the emitting instances next re-execute, keeping the
      // deviation inside the same epsilon bound.
      if (rounds >= kMaxExchangeRounds) {
        LOG_WARN << "serving " << name_ << ": exchange hit the "
                 << kMaxExchangeRounds
                 << "-round cap before the joint fixpoint; committing the "
                 << "state reached (raise the spec's epsilon)";
      }
    } else {
      ++rounds;
    }
    // Barrier round: every shard with inbound contributions folds and
    // refreshes; a fold that changes nothing skips the refresh and
    // exports nothing, which is what drains the loop.
    std::vector<Pipeline::RoundResult> results;
    I2MR_RETURN_IF_ERROR(RefreshEachShard(view.pipelines, /*first=*/false,
                                          &inbound, &results));
    for (const auto& rr : results) AddStageMs(rr, stats);
    if (absorb) break;
    // The convergence gate rides on the RECEIVERS' state movement after
    // the fold (an exporter whose own state never changed says nothing
    // about the impact of its exports): once a whole round of re-reduces
    // stays within epsilon, the remaining exports are sub-epsilon.
    bool any_refreshed = false;
    double round_diff = 0;
    for (int s = 0; s < n; ++s) {
      any_refreshed = any_refreshed || results[s].refreshed;
      round_diff += results[s].total_diff;
      offers[s] = std::move(results[s].exports);
    }
    if (any_refreshed && round_diff <= eps) absorb_and_stop = true;
  }
  return rounds;
}

StatusOr<ShardRouter::CoordinatedEpochStats> ShardRouter::RefreshCoordinated() {
  std::lock_guard<std::mutex> lock(coord_mu_);
  return RefreshCoordinatedLocked();
}

StatusOr<ShardRouter::CoordinatedEpochStats>
ShardRouter::RefreshCoordinatedLocked() {
  CoordinatedEpochStats stats;
  WallTimer wall;
  TRACE_SPAN("serving.coordinated_epoch", "router=%s shards=%d", name_.c_str(),
             num_shards());
  const uint64_t decided = pending_flip_epoch_.load();
  if (decided != 0) {
    // The interrupted barrier was *decided* (record durable, staged slots
    // intact): roll it forward before taking new work. Failure keeps
    // everything refused and the next tick retries.
    Status resumed = FlipBarrierLocked(decided, {});
    if (!resumed.ok()) {
      return Status::Unavailable(
          "interrupted barrier commit not yet rolled forward: " +
          resumed.ToString());
    }
  }
  I2MR_RETURN_IF_ERROR(Refusal(-1, Availability::Op::kWrite));
  if (!bootstrapped()) {
    return Status::FailedPrecondition("router not bootstrapped");
  }
  if (TotalPending() == 0) {
    stats.wall_ms = wall.ElapsedMillis();
    return stats;  // nothing to commit anywhere
  }

  // Everyone commits the same epoch N (vectors stay uniform: the barrier
  // is the only committer).
  uint64_t epoch = 0;
  for (uint64_t e : CommittedEpochs()) epoch = std::max(epoch, e);
  ++epoch;
  I2MR_RETURN_IF_ERROR(RunEpochLocked(epoch, nullptr, &stats));
  stats.committed = true;
  stats.epoch = epoch;
  stats.wall_ms = wall.ElapsedMillis();
  epoch_wall_hist_->Record(static_cast<int64_t>(stats.wall_ms * 1e6));
  if (stats.wall_ms > kSlowEpochMs) {
    LOG_WARN << "slow_epoch serving=" << name_ << " epoch=" << stats.epoch
             << " wall_ms=" << stats.wall_ms << " rounds=" << stats.rounds
             << " deltas=" << stats.deltas_applied
             << " edges_exchanged=" << stats.edges_exchanged
             << " map_ms=" << stats.map_ms
             << " shuffle_ms=" << stats.shuffle_ms
             << " sort_ms=" << stats.sort_ms
             << " reduce_ms=" << stats.reduce_ms
             << " merge_ms=" << stats.merge_ms
             << " threshold_ms=" << kSlowEpochMs;
  }
  return stats;
}

Status ShardRouter::RunEpochLocked(
    uint64_t epoch, const std::function<Status(int, Pipeline*)>& prepare,
    CoordinatedEpochStats* stats) {
  // The topology is stable for the whole locked body: a reshard cutover
  // swaps it only while holding coord_mu_ (coordinated fleets).
  TopologyView view = topology();
  const int n = view.map->num_shards;
  std::vector<uint64_t> drained(n, 0);
  Status st = [&]() -> Status {
    std::vector<Status> status(n);
    if (prepare) {
      ForEachShard(n,
                   [&](int s) { status[s] = prepare(s, view.pipelines[s]); });
    }
    I2MR_RETURN_IF_ERROR(FirstError(status));
    // Round 0: after a bootstrap's full computation, a boundary pass
    // collects each shard's complete boundary set (captured by the MRBGraph
    // preservation pass); otherwise every shard drains its log and
    // refreshes its own subgraph, capturing boundary exports.
    std::vector<Pipeline::RoundResult> results;
    I2MR_RETURN_IF_ERROR(RefreshEachShard(view.pipelines, /*first=*/!prepare,
                                          nullptr, &results));
    std::vector<std::vector<DeltaEdge>> offers(n);
    for (int s = 0; s < n; ++s) {
      offers[s] = std::move(results[s].exports);
      drained[s] = results[s].deltas_drained;
      stats->deltas_applied += results[s].deltas_drained;
      AddStageMs(results[s], stats);
    }
    auto rounds = RunExchangeRounds(view, std::move(offers), stats);
    if (!rounds.ok()) return rounds.status();
    stats->rounds = *rounds;
    return Status::OK();
  }();
  if (!st.ok()) {
    MarkAllDirty();
    return st;
  }
  return CommitBarrier(epoch, drained);
}

bool ShardRouter::BarrierCrashed(const std::string& stage) const {
  return fault::FaultInjector::Armed() &&
         fault::FaultInjector::Instance()->AtCrashPoint("barrier/" + stage);
}

void ShardRouter::FailUntilReopen(const std::string& reason) {
  pending_flip_epoch_.store(0);
  availability_.Set(HealthState::kFailed,
                    Availability::Refuses::kEverything,
                    reason + "; reopen the router (reset=false) to recover");
}

void ShardRouter::SetJournal(
    std::function<void(const DeltaKV& delta)> journal) {
  journal_ = std::move(journal);
}

Status ShardRouter::CommitBarrier(uint64_t epoch,
                                  const std::vector<uint64_t>& drained) {
  TopologyView view = topology();
  const int n = view.map->num_shards;
  auto fail = [this](Status st) {
    MarkAllDirty();
    return st;
  };

  // Phase 1 (prepare): stage every shard's epoch dir. Nothing is visible
  // yet — a crash in here leaves orphan dirs the pipelines GC on reopen,
  // and every CURRENT still names N-1.
  trace::ScopedSpan stage_span("barrier.stage", "epoch=%llu",
                               static_cast<unsigned long long>(epoch));
  std::vector<Status> status(n);
  ForEachShard(n, [&](int s) {
    status[s] = view.pipelines[s]->StageEpoch(epoch);
  });
  stage_span.End();
  Status staged = FirstError(status);
  if (!staged.ok()) return fail(staged);
  if (BarrierCrashed("staged")) {
    return fail(Status::Aborted("simulated coordinator crash after staging"));
  }

  // Decision record: once BARRIER is durable the epoch is decided; a crash
  // from here on is rolled back to N-1 everywhere by RecoverBarrier (the
  // log is not purged until after the barrier, so the deltas replay).
  const bool sync = options_.pipeline.durability == DurabilityMode::kPowerFailure;
  trace::ScopedSpan record_span("barrier.record", "epoch=%llu",
                                static_cast<unsigned long long>(epoch));
  std::string payload;
  PutFixed64(&payload, epoch);
  Status wrote = ReplaceFileDurably(BarrierPathFor(root_, name_, *view.map),
                                    EncodeCrcRecord(payload), sync);
  record_span.End();
  if (!wrote.ok()) return fail(wrote);
  if (BarrierCrashed("barrier")) {
    return fail(
        Status::Aborted("simulated coordinator crash after barrier record"));
  }
  return FlipBarrierLocked(epoch, drained);
}

Status ShardRouter::FlipBarrierLocked(uint64_t epoch,
                                      const std::vector<uint64_t>& drained) {
  TopologyView view = topology();
  const int n = view.map->num_shards;
  const bool sync =
      options_.pipeline.durability == DurabilityMode::kPowerFailure;

  // Phase 2 (flip): swing every CURRENT not yet on `epoch`. Sequential on
  // purpose — a failure mid-flip must stop immediately and leave the
  // barrier record in place; no GC or log purge happens until all flipped.
  // A roll-forward re-runs this loop: a shard that already flipped reports
  // committed_epoch() == epoch. The seqlock goes odd around the flips so a
  // concurrent PinSnapshot retries instead of observing a mixed vector
  // mid-publication; a failure refuses everything before the seqlock goes
  // even again, so pins are refused from then on.
  trace::ScopedSpan flip_span("barrier.flip", "epoch=%llu",
                              static_cast<unsigned long long>(epoch));
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  Status st;
  bool crashed = false;
  // A failure past the decision record. A simulated coordinator crash
  // needs the reopen recovery, and so does bootstrap: its rollback lands
  // on "nothing committed". A *real* I/O failure of a delta epoch does
  // not: the epoch is decided (BARRIER durable) and every unflipped
  // shard's staged slot is still valid, so the commit rolls *forward* on
  // the next coordinated tick once the disk heals.
  auto refuse = [&](const Status& cause) {
    const std::string what = "barrier commit of epoch " +
                             std::to_string(epoch) + " left incomplete (" +
                             cause.ToString() + ")";
    if (crashed || epoch == 0) return FailUntilReopen(what);
    pending_flip_epoch_.store(epoch);
    availability_.Set(HealthState::kDegraded,
                      Availability::Refuses::kEverything,
                      what + "; rolling forward on the next coordinated tick");
  };
  for (int s = 0; s < n && st.ok(); ++s) {
    Pipeline* pipeline = view.pipelines[s];
    if (pipeline->bootstrapped() && pipeline->committed_epoch() >= epoch) {
      continue;
    }
    st = pipeline->FinalizeStagedEpoch();
    if (st.ok() && s == 0 && (crashed = BarrierCrashed("mid_flip"))) {
      st = Status::Aborted("simulated coordinator crash mid-flip");
    }
  }
  if (st.ok() && (crashed = BarrierCrashed("flipped"))) {
    st = Status::Aborted("simulated coordinator crash before barrier removal");
  }
  if (!st.ok()) refuse(st);
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  flip_span.End();

  // Barrier complete: retire the decision record, then housekeeping (GC of
  // superseded epoch dirs + log purges) — deferred until now because a
  // rollback needs the N-1 dirs and the unpurged logs. A record that
  // cannot be removed leaves the commit standing (every CURRENT names N),
  // but would trigger a needless rollback on reopen.
  TRACE_SPAN("barrier.cleanup", "epoch=%llu",
             static_cast<unsigned long long>(epoch));
  if (st.ok()) {
    st = RemoveAll(BarrierPathFor(root_, name_, *view.map));
    if (st.ok() && sync) st = SyncDir(root_);
    if (!st.ok()) refuse(st);
  }
  if (!st.ok()) {
    // A roll-forward keeps the staged slots; the reopen recovery does not
    // need them.
    if (crashed || epoch == 0) MarkAllDirty();
    return st;
  }
  const bool rolled_forward = pending_flip_epoch_.exchange(0) != 0;
  if (epoch > 0) {
    std::shared_lock<std::shared_mutex> topo(topo_mu_);
    for (int s = 0; s < n; ++s) {
      shard_epochs_committed_[s]->Increment();
      if (s < static_cast<int>(drained.size()) && drained[s] > 0) {
        shard_deltas_applied_[s]->Add(static_cast<int64_t>(drained[s]));
      }
    }
  }
  ForEachShard(n, [&](int s) {
    Status cleaned = view.pipelines[s]->CleanupCommitted();
    if (!cleaned.ok()) {
      LOG_WARN << "serving " << name_ << ": shard " << s
               << " post-barrier cleanup failed (" << cleaned.ToString()
               << ")";
    }
  });
  if (rolled_forward) availability_.Clear();
  return Status::OK();
}

Status ShardRouter::RecoverBarrier(const std::string& root,
                                   const std::string& name,
                                   const ShardRouterOptions& options,
                                   const PartitionMap& map) {
  const std::string barrier = BarrierPathFor(root, name, map);
  if (!FileExists(barrier)) return Status::OK();
  auto payload = ReadCrcRecord(barrier, 8);
  if (!payload.ok()) return payload.status();
  const uint64_t epoch = DecodeFixed64(payload->data());
  const bool sync =
      options.pipeline.durability == DurabilityMode::kPowerFailure;

  for (int s = 0; s < map.num_shards; ++s) {
    EpochStore epochs(PipelineDirOf(root, name, map, s), sync);
    auto committed = epochs.Recover();
    if (!committed.ok()) return committed.status();
    if (*committed && (*committed)->epoch == epoch) {
      // This shard already flipped: rewind to its previous epoch (GC and
      // log purges are barred until after the barrier, so the previous
      // dir is still there and the drained deltas still replay). A
      // bootstrap barrier rolls back to "nothing committed".
      if (epoch == 0) {
        I2MR_RETURN_IF_ERROR(epochs.Unflip());
      } else {
        auto prev = epochs.PreviousEpoch(epoch);
        if (!prev.ok()) {
          return Status::Corruption("shard " + std::to_string(s) +
                                    " has no epoch to roll back to: " +
                                    prev.status().ToString());
        }
        I2MR_RETURN_IF_ERROR(epochs.Flip(*prev));
      }
    }
    // Staged (or flipped-then-rewound) epoch dir: gone either way.
    if (FileExists(epochs.EpochDir(epoch))) {
      I2MR_RETURN_IF_ERROR(RemoveAll(epochs.EpochDir(epoch)));
    }
  }
  I2MR_RETURN_IF_ERROR(RemoveAll(barrier));
  if (sync) I2MR_RETURN_IF_ERROR(SyncDir(root));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-shard failover
// ---------------------------------------------------------------------------

Status ShardRouter::MarkPrimaryLost(int shard) {
  // coord_mu_ waits out an in-flight coordinated epoch, the exclusive
  // append gate waits out in-flight appends: once the shard refuses
  // writes, nothing reaches the dead primary.
  std::lock_guard<std::mutex> coord(coord_mu_);
  std::unique_lock<std::shared_mutex> gate(append_gate_);
  std::unique_lock<std::shared_mutex> topo(topo_mu_);
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) {
    return Status::InvalidArgument("no shard " + std::to_string(shard));
  }
  shard_availability_[shard]->Set(
      HealthState::kFailed, Availability::Refuses::kWrites,
      "shard " + std::to_string(shard) +
          " lost its primary; appends to it, coordinated epochs and "
          "reshards are refused until a follower is promoted");
  return Status::OK();
}

bool ShardRouter::primary_lost(int shard) const {
  std::shared_lock<std::shared_mutex> topo(topo_mu_);
  return shard >= 0 && shard < static_cast<int>(shard_availability_.size()) &&
         shard_availability_[shard]->refuses() !=
             Availability::Refuses::kNothing;
}

StatusOr<Pipeline*> ShardRouter::PromotePrimary(
    int shard, std::unique_ptr<Shard>* follower) {
  std::lock_guard<std::mutex> coord(coord_mu_);
  TopologyView view = topology();
  const int n = view.map->num_shards;
  if (!primary_lost(shard)) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " primary is not lost");
  }
  // Epochs are refused while the primary is lost, so the other shards'
  // committed epochs are stable here; the promoted slice must rejoin at
  // exactly that epoch, or the vector stops being uniform (a behind
  // follower would also miss boundary contributions the other shards
  // already folded in).
  const uint64_t epoch = (*follower)->pipeline->committed_epoch();
  for (int s = 0; s < n; ++s) {
    const uint64_t committed = view.pipelines[s]->committed_epoch();
    if (s != shard && committed != epoch) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) + " follower applied epoch " +
          std::to_string(epoch) + " but shard " + std::to_string(s) +
          " committed epoch " + std::to_string(committed));
    }
  }
  I2MR_RETURN_IF_ERROR((*follower)->pipeline->Promote());
  std::unique_ptr<Shard> promoted = std::move(*follower);
  Pipeline* pipeline = promoted->pipeline.get();
  // The swap, like AdoptTopology's: pins retry around it, and the lost
  // slice retires alive so pins taken from it keep serving. The exclusive
  // append gate clears the shard's refusal: an append takes its topology
  // view and asks Refusal under one shared hold, so it either sees the
  // lost slice and is refused or routes to the promoted one — it never
  // passes the check and then writes to the retired primary.
  {
    std::unique_lock<std::shared_mutex> gate(append_gate_);
    commit_seq_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::shared_mutex> topo(topo_mu_);
      retired_.push_back(std::move(shards_[shard]));
      shards_[shard] = std::move(promoted);
      shard_availability_[shard]->Clear();
    }
    commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  }
  LOG_INFO << "serving " << name_ << ": shard " << shard
           << " promoted a follower at epoch " << epoch;
  return pipeline;
}

void ShardRouter::AdoptTopology(std::vector<std::unique_ptr<Shard>> shards,
                                std::unique_ptr<CrossShardExchange> exchange,
                                std::shared_ptr<const PartitionMap> map,
                                std::vector<Counter*> epochs_committed,
                                std::vector<Counter*> deltas_applied) {
  // The swap itself: pointer moves under the exclusive topology lock,
  // bracketed by the barrier-flip seqlock so coordinated pins retry
  // instead of pinning across two generations. Old slices move to
  // retired_; their pipelines stay alive so pre-cutover pins and views
  // keep serving the old map until the router dies.
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::unique_lock<std::shared_mutex> topo(topo_mu_);
    for (auto& shard : shards_) retired_.push_back(std::move(shard));
    shards_ = std::move(shards);
    exchange_ = std::move(exchange);
    map_ = std::move(map);
    shard_epochs_committed_ = std::move(epochs_committed);
    shard_deltas_applied_ = std::move(deltas_applied);
    options_.num_shards = map_->num_shards;
    options_.pipeline.generation = map_->generation;
    ResetShardAvailability();
  }
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
}

void ShardRouter::ResetShardAvailability() {
  // A reshard starts only with no shard refusing.
  shard_availability_.clear();
  for (int s = 0; s < map_->num_shards; ++s) {
    shard_availability_.push_back(std::make_unique<Availability>(
        options_.health, "serving." + name_ + ".shard" + std::to_string(s),
        &Status::FailedPrecondition));
  }
}

}  // namespace i2mr
