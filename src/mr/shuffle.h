// Shuffle machinery shared by the plain job runner and the iterative /
// incremental engines: map-side partition+sort+combine into flat-KV arena
// runs, reduce-side fetch, k-way merge and group iteration.
//
// Two exchange paths move a sorted run from a map task to its reduce task:
//
//  * In-memory (default): the run is handed to the job's ShuffleExchange and
//    the reducer merges it in place — no part-<r>.dat write, read-back or
//    re-decode. Same-process clusters (LocalCluster) never need the disk
//    round-trip for correctness; the simulated network cost and
//    StageMetrics accounting are charged from the run's serialized size so
//    the paper's cost experiments are unchanged.
//  * Disk spill: the run is written to `<dir>/part-<r>.dat` and fetched by
//    the reducer. Used when the exchange's memory budget is exceeded (per
//    run spill-over), when a spec requests it, or when the
//    I2MR_FORCE_DISK_SHUFFLE=1 env toggle forces it (CI exercises both
//    modes; crash-recovery tests rely on spills surviving task retries).
#ifndef I2MR_MR_SHUFFLE_H_
#define I2MR_MR_SHUFFLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/metrics.h"
#include "common/status.h"
#include "mr/api.h"
#include "mr/cost_model.h"

namespace i2mr {

/// How map output travels to reduce tasks. kInMemory still spills runs that
/// would overflow the exchange's memory budget.
enum class ShuffleMode { kInMemory, kDisk };

/// Default exchange budget: plenty for laptop-scale runs, small enough that
/// a runaway job degrades to spills instead of OOM.
inline constexpr size_t kDefaultShuffleMemoryBytes = 256u << 20;

/// Spec preference combined with the I2MR_FORCE_DISK_SHUFFLE env toggle
/// (any value but "" / "0" forces kDisk).
ShuffleMode EffectiveShuffleMode(ShuffleMode requested);

/// In-memory shuffle exchange owned by one job / one iteration: map tasks
/// Offer() their sorted per-partition runs, reduce tasks Borrow() them
/// back. Offer is thread-safe (map tasks run concurrently); Borrow must
/// only run after the map phase completed (the runners' phase barrier).
/// Runs stay owned by the exchange until it is destroyed, so a retried
/// reduce attempt sees the same input a re-read spill file would provide.
class ShuffleExchange {
 public:
  ShuffleExchange(int num_partitions, size_t memory_budget_bytes);

  /// Publish one map task's sorted run for `partition`. `writer` names the
  /// producing map task (its spill dir — stable across retry attempts): a
  /// re-offer from a retried attempt REPLACES the earlier run instead of
  /// duplicating it, mirroring how a retried disk attempt overwrites its
  /// part-<r>.dat. Returns false — without taking the run — when it would
  /// exceed the memory budget; the caller spills that run to disk instead.
  bool Offer(int partition, const std::string& writer, FlatKVRun&& run);

  /// All runs published for `partition`. Views stay valid until the
  /// exchange is destroyed.
  std::vector<const FlatKVRun*> Borrow(int partition) const;

  uint64_t bytes_held() const;

 private:
  mutable std::mutex mu_;
  size_t budget_;
  uint64_t held_ = 0;
  // Per partition: (writer id, run). Writer-keyed so retried map attempts
  // replace their earlier offer.
  std::vector<std::vector<std::pair<std::string, FlatKVRun>>> runs_;
};

/// Map-side sink: buffers intermediate kv-pairs per reduce partition in
/// flat-KV arena runs, then sorts each partition (optionally running a
/// combiner) and hands it to the exchange — or spills it to
/// `<dir>/part-<r>.dat` (no exchange / over budget). Records sort time and
/// output volume in metrics.
class ShuffleWriter : public MapContext {
 public:
  ShuffleWriter(int num_partitions, const Partitioner* partitioner,
                std::string dir, ShuffleExchange* exchange = nullptr);

  void Emit(std::string_view key, std::string_view value) override;

  /// Sort, combine and publish/spill all partitions. After Finish() the
  /// writer is done; spill file r is `<dir>/part-<r>.dat` (absent if the
  /// partition was empty or went through the exchange).
  Status Finish(Reducer* combiner, StageMetrics* metrics);

 private:
  int num_partitions_;
  const Partitioner* partitioner_;
  std::string dir_;
  ShuffleExchange* exchange_;
  std::vector<FlatKVRun> buffers_;
  int64_t records_ = 0;
  // An emitted field exceeded kMaxRecordFieldLen: Finish fails with the
  // same InvalidArgument the disk path's RecordWriter would raise.
  bool oversize_field_ = false;
};

/// Reduce-side: fetches one partition's sorted runs from the exchange
/// and/or the map tasks' spill files (the "shuffle" stage — pays the
/// simulated network cost either way), merges them (the "sort" stage), and
/// iterates groups of equal keys. Views handed out by NextGroup stay valid
/// until the reader (and, for exchange runs, the exchange) is destroyed.
class ShuffleReader {
 public:
  struct Source {
    /// The partition-r spill of every map task (missing files are skipped).
    std::vector<std::string> spill_files;
    /// In-memory runs for this partition (may be null: disk-only).
    const ShuffleExchange* exchange = nullptr;
    int partition = 0;
  };

  /// Fetch+merge happen in Open().
  static StatusOr<std::unique_ptr<ShuffleReader>> Open(
      const Source& source, const CostModel& cost, StageMetrics* metrics);

  /// Disk-only convenience (tests, external spill sets).
  static StatusOr<std::unique_ptr<ShuffleReader>> Open(
      const std::vector<std::string>& spill_files, const CostModel& cost,
      StageMetrics* metrics);

  /// Next group of values sharing one key, as views into the merged runs.
  /// Returns false at end.
  bool NextGroup(std::string_view* key, std::vector<std::string_view>* values);

  /// Copying overload for callers that need owned strings.
  bool NextGroup(std::string* key, std::vector<std::string>* values);

  /// Total records across all groups.
  size_t num_records() const { return merged_.size(); }

 private:
  // Identifies one record as (run, index within run).
  struct Ref {
    uint32_t run;
    uint32_t idx;
  };

  ShuffleReader() = default;

  std::string_view KeyOf(const Ref& r) const {
    return runs_[r.run]->key(r.idx);
  }
  std::string_view ValueOf(const Ref& r) const {
    return runs_[r.run]->value(r.idx);
  }

  std::vector<FlatKVRun> owned_runs_;       // decoded spill files
  std::vector<const FlatKVRun*> runs_;      // owned + exchange-borrowed
  std::vector<Ref> merged_;                 // sorted by (key, value)
  size_t pos_ = 0;
};

/// Sorts `run` by (key, value) and runs `combiner` over each group,
/// replacing `run` with the combined output (sorted). Used map-side by
/// ShuffleWriter. Fails with InvalidArgument if the combiner emits a field
/// over kMaxRecordFieldLen (matching what the disk path's RecordWriter
/// would raise when re-spilling the combined run).
Status SortAndCombine(FlatKVRun* run, Reducer* combiner);

}  // namespace i2mr

#endif  // I2MR_MR_SHUFFLE_H_
