// FollowerReplica: one read-only vertical slice of a shard, fed by a
// ReplicaShipper. It owns its own root directory laid out exactly like a
// shard root (`<root>/pipeline/<name>/{epoch-*, CURRENT, log/}`), so the
// data a shipper lands here is byte-for-byte what the primary's recovery
// path reads — promotion is just "open a Pipeline over this root".
//
// Its epoch dirs belong to an EpochStore (pipeline/epoch_store.h), and
// epochs are installed with the same A/B-slot discipline the primary
// commits with:
//
//   1. StageEpoch copies the primary's epoch dir into the slot
//      (`epoch-<E>.tmp/`), fully verifies it there (MANIFEST CRC, record
//      file CRC scans of every partition's structure/state and remote
//      inbox, a parse of the serving snapshot), and seals it as
//      `epoch-<E>/`.
//   2. PromoteStaged re-checks the manifest, atomically flips the
//      follower's own CURRENT, and publishes the new serving store.
//
// A crash or kill at any point leaves either the old epoch serving or the
// new one — never a torn view — and Open() recovers from CURRENT the same
// way a pipeline does. The follower never decides on its own to serve an
// epoch: PromoteStaged takes the (epoch, watermark) the shipper saw the
// primary durably commit, so an epoch that was only staged on the primary
// (barrier in flight, or a primary that died mid-commit) is never served.
//
// Reads go through PinServing(): the store's refcounted EpochPin, the same
// the serving layer uses, so ReplicaSet drops follower pins into a
// ShardSnapshot unchanged. Pins keep the in-memory store alive across
// Close() and even across promotion (the on-disk dir of a superseded epoch
// may be collected once the promoted pipeline commits past it; the pinned
// store is not).
#ifndef I2MR_REPLICATION_FOLLOWER_REPLICA_H_
#define I2MR_REPLICATION_FOLLOWER_REPLICA_H_

#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "core/result_store.h"
#include "io/file.h"
#include "pipeline/epoch_store.h"

namespace i2mr {

struct FollowerReplicaOptions {
  /// kPowerFailure additionally fsyncs shipped files and the CURRENT flip.
  DurabilityMode durability = DurabilityMode::kProcessCrash;

  /// Expected per-shard partition count; staged epochs missing a partition
  /// dir fail verification (0 = don't check).
  int num_partitions = 0;

  /// Counter registry (Default() when null) and the replica's series
  /// prefix, e.g. "serving.pr.shard0.replica1". The family is registered
  /// through a scoped handle: RetireMetrics() (or destruction) unregisters
  /// it, so a promoted/destroyed replica leaves no stale series behind.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix;
};

class FollowerReplica {
 public:
  FollowerReplica(std::string root, std::string pipeline_name,
                  FollowerReplicaOptions options);
  ~FollowerReplica() = default;
  FollowerReplica(const FollowerReplica&) = delete;
  FollowerReplica& operator=(const FollowerReplica&) = delete;

  /// Attach (or create) the replica root: recover the applied epoch from
  /// CURRENT (verifying it), discard any interrupted staging slot, and
  /// start accepting shipments. Also the restart path after Close().
  Status Open();

  /// Simulate replica death / take it out of service: stops serving and
  /// accepting shipments. Outstanding pins keep their stores.
  void Close();

  bool open() const;
  /// True when an applied epoch is being served.
  bool serving() const;

  // -- Shipper-side ingestion (one shipper thread at a time) -----------------

  /// Stage + verify the primary epoch dir `src_dir` into the A/B staging
  /// slot. Adds the bytes copied to *shipped_bytes (may be null). Skips
  /// (OK) when the epoch is already applied or already staged.
  Status StageEpoch(uint64_t epoch, uint64_t watermark,
                    const std::string& src_dir, uint64_t* shipped_bytes);

  /// Flip the staged epoch live: re-verify the slot's manifest against the
  /// (epoch, watermark) the primary durably committed, rename it to its
  /// final name, swing CURRENT, publish the serving store, GC superseded
  /// epoch dirs. FailedPrecondition when the slot doesn't match.
  Status PromoteStaged(uint64_t epoch, uint64_t watermark);

  /// Bind the replica to the primary's partition-map generation. A reshard
  /// bumps the primary's generation and re-partitions every key, so state
  /// replicated under an older generation is unusable: on a mismatch the
  /// follower discards its staged slot, wipes its applied epochs and
  /// shipped log segments, durably records the new generation (GEN file in
  /// the pipeline dir), and re-syncs from scratch on the following ship
  /// passes. Shippers call this at the top of every pass, before any
  /// segment install (seq-based dedup would otherwise skip re-shipped
  /// spans). No-op when the generation already matches.
  Status EnsureGeneration(uint64_t generation);
  uint64_t generation() const;

  /// Copy one sealed/archived segment file into the replica's log dir
  /// (idempotent: already-present same-size files are skipped). A segment's
  /// identity is its first sequence number, not its filename: installing
  /// one form (raw `seg-X.dat` vs compressed `seg-X.lzd`) removes the
  /// other, so recovery over the root never sees the same seq span twice.
  /// Adds the bytes copied to *shipped_bytes (may be null).
  Status InstallSegment(const std::string& src_path, uint64_t* shipped_bytes);

  /// Basenames of segment files currently held in the replica's log dir.
  std::set<std::string> SegmentBasenames() const;

  /// First sequence numbers of the held segment files — the dedup key a
  /// shipper must use (the primary re-encodes raw segments as compressed
  /// archives; both forms cover the same records).
  std::set<uint64_t> SegmentFirstSeqs() const;

  /// Compact retained history: durably advance the replica's PURGE mark to
  /// `watermark` and delete shipped segments that are fully below it (the
  /// records a promoted pipeline would drop at recovery anyway).
  Status PurgeShippedBelow(uint64_t watermark);

  // -- Read side -------------------------------------------------------------

  /// Pin the applied epoch for versioned reads (invalid pin when not
  /// serving). Unlike a Pipeline pin, only the in-memory store — not the
  /// on-disk dir — is guaranteed to survive a later promotion.
  EpochPin PinServing() const;

  uint64_t applied_epoch() const { return epochs_.epoch(); }
  uint64_t applied_watermark() const { return epochs_.watermark(); }

  /// Publish the shipper-observed lag (primary committed epoch − applied
  /// epoch) into the replica's lag_epochs gauge.
  void SetLagEpochs(uint64_t lag);

  /// Unregister this replica's counter family (promotion/teardown — the
  /// fix for deregistered replicas leaking stale series).
  void RetireMetrics();

  Counter* reads_served() const { return reads_served_; }
  Counter* shipped_bytes() const { return shipped_bytes_; }
  Counter* applied_epochs() const { return applied_epochs_; }

  const std::string& root() const { return root_; }
  const std::string& name() const { return name_; }
  /// `<root>/pipeline/<name>` — the dir a promoted Pipeline opens.
  const std::string& PipelineDir() const { return epochs_.dir(); }
  std::string LogDir() const;

 private:
  /// Best-effort removal of an abandoned staged epoch, slot or sealed
  /// (failure logged: a leftover only wastes disk until the next Collect).
  void DropStaged(uint64_t epoch);
  std::string GenPath() const;

  const std::string root_;
  const std::string name_;
  FollowerReplicaOptions options_;

  ScopedMetricPrefix metric_scope_;
  Counter* shipped_bytes_ = nullptr;
  Counter* applied_epochs_ = nullptr;
  Gauge* lag_epochs_ = nullptr;
  Counter* reads_served_ = nullptr;

  mutable std::mutex mu_;  // locked before the epoch store's own mutex
  bool open_ = false;
  uint64_t open_gen_ = 0;  // bumped by Open(): invalidates in-flight stages
  uint64_t generation_ = 0;  // partition-map generation (GEN file)
  /// A verified, sealed epoch waiting for PromoteStaged.
  struct Staged {
    uint64_t epoch = 0;
    uint64_t watermark = 0;
    std::shared_ptr<const ResultStore> store;  // parsed at staging
  };
  std::optional<Staged> staged_;
  uint64_t purge_mark_ = 0;
  /// Applied epoch dirs, CURRENT, the served (epoch, watermark, store)
  /// triple and its pins.
  EpochStore epochs_;
};

}  // namespace i2mr

#endif  // I2MR_REPLICATION_FOLLOWER_REPLICA_H_
