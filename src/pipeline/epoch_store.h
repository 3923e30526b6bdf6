// EpochStore: the committed-epoch directory of one pipeline — a primary or
// a follower replica's read-only one — and the only code that knows its
// layout:
//
//   <dir>/epoch-<E>.tmp/   slot being filled; never authoritative
//   <dir>/epoch-<E>/       sealed snapshot: per-partition files, serving.dat,
//                          MANIFEST ([u64 epoch][u64 watermark]
//                          [u64 generation] ‖ crc32, 28 bytes)
//   <dir>/CURRENT          names the committed epoch dir
//
// Every pipeline commits epochs with one A/B-slot discipline:
//
//   1. OpenSlot(E), then fill epoch-<E>.tmp — a primary hard-links its
//      engine files in, a follower (Pipeline::InstallEpoch) byte-copies
//      the primary's committed dir;
//   2. Seal(E): fsync the slot and rename it to epoch-<E>;
//   3. Flip(E): durably point CURRENT at it — the commit — then Publish()
//      the epoch's (epoch, watermark, ResultStore) triple to readers.
//
// A crash before step 3 leaves CURRENT on the previous epoch: Recover()
// reads it back and Collect() removes the leftovers. Readers Pin() the
// published triple; a pinned epoch's dir survives Collect() until the last
// copy of the pin is gone.
#ifndef I2MR_PIPELINE_EPOCH_STORE_H_
#define I2MR_PIPELINE_EPOCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/result_store.h"

namespace i2mr {

/// A pinned, immutable view of one committed epoch (MVCC-style versioned
/// read). While any copy of the pin is alive, the epoch's in-memory
/// ResultStore stays valid and its on-disk epoch-<E>/ dir is excluded from
/// EpochStore::Collect — later commits land underneath without blocking or
/// invalidating the reader. Copies share one refcount.
class EpochPin {
 public:
  EpochPin() = default;

  bool valid() const { return state_ != nullptr; }
  /// Epoch / consumed-watermark this view was committed at.
  uint64_t epoch() const;
  uint64_t watermark() const;
  /// The frozen result snapshot (nullptr for a default-constructed pin).
  const ResultStore* store() const;
  /// On-disk epoch dir, kept by its store's Collect while the pin is held.
  const std::string& dir() const;

  /// Point lookup against the frozen view; NotFound for unknown keys.
  StatusOr<std::string> Lookup(const std::string& key) const;

 private:
  friend class EpochStore;
  /// Epoch -> live pin count, shared by a store and its pins (so a pin may
  /// outlive the store that minted it).
  struct PinTable {
    std::mutex mu;
    std::map<uint64_t, int> counts;
  };
  struct State {
    std::shared_ptr<PinTable> table;
    uint64_t epoch = 0;
    uint64_t watermark = 0;
    std::shared_ptr<const ResultStore> store;
    std::string dir;
    ~State();
  };
  explicit EpochPin(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class EpochStore {
 public:
  /// `sync` (power-failure durability) fsyncs sealed slots and CURRENT.
  EpochStore(std::string dir, bool sync);
  EpochStore(const EpochStore&) = delete;
  EpochStore& operator=(const EpochStore&) = delete;

  /// "epoch-%08u", and "part-%03d" for a partition's dir inside one.
  static std::string EpochDirName(uint64_t epoch);
  static std::string PartDirName(int partition);
  /// Read + CRC-check an epoch dir's MANIFEST.
  static Status ReadManifest(const std::string& dir, uint64_t* epoch,
                             uint64_t* watermark,
                             uint64_t* generation = nullptr);
  /// Check an epoch dir before it is trusted: its MANIFEST names (epoch,
  /// watermark), each partition's structure/state/remote record files scan
  /// clean, there are `num_partitions` (0 = any), and serving.dat parses
  /// (returned). MRBG segments are checked by the MRBG store's open scan.
  static StatusOr<ResultStore> Verify(const std::string& dir, uint64_t epoch,
                                      uint64_t watermark, int num_partitions);

  const std::string& dir() const { return dir_; }
  std::string EpochDir(uint64_t epoch) const;
  std::string SlotDir(uint64_t epoch) const;

  // -- Staging and commit ----------------------------------------------------

  /// Start a fresh, empty slot for `epoch`, removing any leftover slot or
  /// sealed dir of an earlier attempt at the same epoch.
  Status OpenSlot(uint64_t epoch);
  /// Write the slot's MANIFEST (a follower's copied slot already has one).
  Status WriteManifest(uint64_t epoch, uint64_t watermark,
                       uint64_t generation);
  /// fsync the slot (when syncing) and rename it to epoch-<E>.
  Status Seal(uint64_t epoch);
  /// Durably point CURRENT at epoch-<E> (ReplaceFileDurably). A flip that
  /// fails after its rename (the directory fsync) still moved CURRENT:
  /// current() reports what CURRENT names either way.
  Status Flip(uint64_t epoch);
  /// The epoch CURRENT names (nullopt when nothing is committed).
  std::optional<uint64_t> current() const;
  /// Remove CURRENT: nothing is committed any more (a rolled-back
  /// bootstrap barrier).
  Status Unflip();
  /// Hand readers a new committed triple (a null store: nothing served).
  /// Outstanding pins keep their stores.
  void Publish(uint64_t epoch, uint64_t watermark,
               std::shared_ptr<const ResultStore> store);

  // -- Recovery --------------------------------------------------------------

  struct Committed {
    uint64_t epoch = 0;
    uint64_t watermark = 0;
    uint64_t generation = 0;
  };
  /// The epoch CURRENT names, read from its MANIFEST (nullopt when nothing
  /// is committed). Does not publish: the caller verifies and loads first.
  StatusOr<std::optional<Committed>> Recover();
  /// The largest sealed epoch below `before` (slots skipped); NotFound
  /// when there is none.
  StatusOr<uint64_t> PreviousEpoch(uint64_t before) const;

  /// Remove every epoch dir and slot that CURRENT does not name and no pin
  /// holds.
  Status Collect();

  // -- Read side -------------------------------------------------------------

  /// Pin the published epoch (invalid pin before the first Publish). The
  /// (epoch, watermark, store) triple is taken atomically.
  EpochPin Pin() const;
  /// The published store (nullptr before the first Publish).
  std::shared_ptr<const ResultStore> store() const;
  uint64_t epoch() const { return epoch_.load(); }
  uint64_t watermark() const { return watermark_.load(); }

 private:
  std::string CurrentPath() const;

  const std::string dir_;
  const bool sync_;

  /// Guards the published triple (one publication: Pin reads all three
  /// under it) and the CURRENT bookkeeping Collect reads. Locked before
  /// pins_->mu.
  mutable std::mutex mu_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> watermark_{0};
  std::shared_ptr<const ResultStore> store_;
  std::optional<uint64_t> current_;  // the epoch CURRENT names
  std::shared_ptr<EpochPin::PinTable> pins_;
};

}  // namespace i2mr

#endif  // I2MR_PIPELINE_EPOCH_STORE_H_
