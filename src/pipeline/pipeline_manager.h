// PipelineManager: many pipelines over one shared LocalCluster.
//
// Ingestion (Append) is routed to each pipeline's durable DeltaLog;
// refreshes are scheduled on the manager's own ThreadPool so several
// pipelines can run epochs concurrently while the cluster's worker pool
// executes their map/reduce tasks. An epoch is scheduled when a pipeline's
// min-batch or max-lag trigger fires (pg_incremental-style sequence
// pipelines: poll, drain the new sequence range, refresh, commit).
//
// The ServingView answers point lookups from each pipeline's committed
// ResultStore snapshot — reads are served from the last committed epoch and
// never block on a refresh in flight.
#ifndef I2MR_PIPELINE_PIPELINE_MANAGER_H_
#define I2MR_PIPELINE_PIPELINE_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "mr/cluster.h"
#include "pipeline/pipeline.h"

namespace i2mr {

class PipelineManager;

/// Read-only query facade over every registered pipeline's committed
/// results. Cheap to copy around query-serving code; thread-safe.
class ServingView {
 public:
  explicit ServingView(const PipelineManager* manager) : manager_(manager) {}

  /// Point lookup in `pipeline`'s committed result.
  StatusOr<std::string> Lookup(const std::string& pipeline,
                               const std::string& key) const;

  /// Full committed result of `pipeline`, sorted by key.
  StatusOr<std::vector<KV>> Snapshot(const std::string& pipeline) const;

  /// Epoch the answers currently come from.
  StatusOr<uint64_t> CommittedEpoch(const std::string& pipeline) const;

 private:
  const PipelineManager* manager_;
};

struct PipelineManagerOptions {
  /// Epoch drivers: how many pipelines may refresh concurrently. The
  /// map/reduce tasks inside an epoch still run on the cluster's pool.
  int scheduler_threads = 2;

  /// Background poll cadence for Start().
  double poll_interval_ms = 10;

  /// Durability floor for every registered pipeline: Register() raises a
  /// pipeline's mode to at least this (a pipeline may ask for stricter
  /// durability than the deployment default, never weaker).
  DurabilityMode durability = DurabilityMode::kProcessCrash;

  /// Where the manager publishes its counters (epochs committed, deltas
  /// applied, failures, reads served), under "<metrics_prefix>.<counter>".
  /// Defaults to MetricsRegistry::Default(); managers with distinct
  /// prefixes share one registry side by side.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "pipeline_manager";

  /// Epochs slower than this log one structured `slow_epoch` WARN line
  /// with the stage breakdown inline (map/shuffle/sort/reduce/merge), so
  /// a tail-latency epoch explains itself without a trace attached.
  /// <= 0 disables the log line. Every epoch's wall time additionally
  /// lands in the "<metrics_prefix>.epoch_wall_ns" histogram.
  double slow_epoch_ms = 1000;
};

class PipelineManager {
 public:
  explicit PipelineManager(LocalCluster* cluster,
                           PipelineManagerOptions options = {});
  ~PipelineManager();

  PipelineManager(const PipelineManager&) = delete;
  PipelineManager& operator=(const PipelineManager&) = delete;

  /// Open (or recover) a pipeline and take ownership. Fails with
  /// AlreadyExists on duplicate names.
  StatusOr<Pipeline*> Register(const std::string& name,
                               PipelineOptions options);

  /// nullptr when unknown.
  Pipeline* Get(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// Durable ingestion, routed by pipeline name.
  StatusOr<uint64_t> Append(const std::string& name, const DeltaKV& delta);
  Status AppendBatch(const std::string& name,
                     const std::vector<DeltaKV>& deltas);

  /// Submit an epoch for every pipeline whose trigger fired and that has no
  /// epoch in flight. Returns the number scheduled; non-blocking.
  int ScheduleReady();

  /// Run epochs (concurrently across pipelines) until no pipeline has
  /// pending deltas; blocks. Ignores min-batch/max-lag triggers. Returns
  /// the first epoch failure, if any.
  Status DrainAll();

  /// Background scheduling: a poller thread calling ScheduleReady() every
  /// poll_interval_ms. Stop() (or destruction) joins it and waits for
  /// in-flight epochs.
  void Start();
  void Stop();

  const ServingView& view() const { return view_; }

  /// Point-in-time counter values. Backed by the MetricsRegistry the
  /// manager publishes into (options().metrics under metrics_prefix), so
  /// external collectors read the same numbers without this accessor.
  struct Stats {
    uint64_t epochs_committed = 0;
    uint64_t deltas_applied = 0;   // records replayed into epochs
    uint64_t epoch_failures = 0;
    uint64_t reads_served = 0;     // ServingView lookups + snapshots
  };
  Stats stats() const;

  const PipelineManagerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::unique_ptr<Pipeline> pipeline;
    std::atomic<bool> running{false};
    Status last_error;  // guarded by err_mu
    std::mutex err_mu;
    /// Poller backoff after epoch failures: ScheduleReady skips the entry
    /// until this deadline (exponential in consecutive_failures), so a
    /// persistently failing epoch doesn't burn a restore + refresh attempt
    /// every poll interval. Explicit DrainAll calls ignore it.
    std::atomic<int64_t> next_attempt_ns{0};
    std::atomic<int> consecutive_failures{0};
  };

  /// Claim the entry and run one epoch on the scheduler pool. Returns
  /// false if it was already running or has nothing pending.
  bool SubmitEpoch(Entry* entry);
  void RunEpochTask(Entry* entry);

  std::vector<Entry*> Entries() const;

  LocalCluster* cluster_;
  PipelineManagerOptions options_;
  ThreadPool sched_pool_;
  ServingView view_;

  mutable std::mutex mu_;           // protects entries_ (the map only)
  std::mutex register_mu_;          // serializes whole Register() calls
  std::map<std::string, std::unique_ptr<Entry>> entries_;

  std::thread poller_;
  std::atomic<bool> polling_{false};

  /// Per-instance tallies (stats() stays exact per manager) mirrored into
  /// registry counters under metrics_prefix (the shared observability
  /// surface — several managers may publish into one registry).
  struct PublishedCounter {
    std::atomic<uint64_t> local{0};
    Counter* published = nullptr;
    void Add(uint64_t d) {
      local.fetch_add(d);
      published->Add(static_cast<int64_t>(d));
    }
    void Increment() { Add(1); }
  };
  PublishedCounter epochs_committed_;
  PublishedCounter deltas_applied_;
  PublishedCounter epoch_failures_;
  mutable PublishedCounter reads_served_;
  Histogram* epoch_wall_hist_ = nullptr;  // registry-owned

  friend class ServingView;
};

}  // namespace i2mr

#endif  // I2MR_PIPELINE_PIPELINE_MANAGER_H_
