#include "pipeline/epoch_store.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/codec.h"
#include "io/env.h"
#include "io/record_file.h"

namespace i2mr {
namespace {

constexpr const char* kCurrentFile = "CURRENT";
constexpr const char* kManifestFile = "MANIFEST";
constexpr const char* kSlotSuffix = ".tmp";
constexpr size_t kManifestPayloadSize = 24;

struct EpochDirEntry {
  uint64_t epoch = 0;
  bool slot = false;  // epoch-<E>.tmp
  std::string path;
};

/// The epoch dirs and slots directly under `dir`.
StatusOr<std::vector<EpochDirEntry>> ListEpochDirs(const std::string& dir) {
  // error_code overloads throughout: this runs on the serving path, where
  // a transient filesystem error must surface as a Status.
  std::error_code ec;
  std::vector<EpochDirEntry> out;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string base = it->path().filename().string();
    if (base.rfind("epoch-", 0) != 0 || !it->is_directory(ec)) continue;
    EpochDirEntry entry;
    size_t i = 6;
    for (; i < base.size() && base[i] >= '0' && base[i] <= '9'; ++i) {
      entry.epoch = entry.epoch * 10 + static_cast<uint64_t>(base[i] - '0');
    }
    entry.slot = base.compare(i, std::string::npos, kSlotSuffix) == 0;
    if (i == 6 || (i < base.size() && !entry.slot)) continue;
    entry.path = it->path().string();
    out.push_back(std::move(entry));
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// EpochPin
// ---------------------------------------------------------------------------

EpochPin::State::~State() {
  if (table == nullptr) return;
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->counts.find(epoch);
  if (it != table->counts.end() && --it->second <= 0) table->counts.erase(it);
  // A superseded dir stays on disk until its store's next Collect: deferred
  // cleanup keeps the release wait-free of I/O on the read path.
}

uint64_t EpochPin::epoch() const {
  return state_ == nullptr ? 0 : state_->epoch;
}

uint64_t EpochPin::watermark() const {
  return state_ == nullptr ? 0 : state_->watermark;
}

const ResultStore* EpochPin::store() const {
  return state_ == nullptr ? nullptr : state_->store.get();
}

const std::string& EpochPin::dir() const {
  static const std::string kEmpty;
  return state_ == nullptr ? kEmpty : state_->dir;
}

StatusOr<std::string> EpochPin::Lookup(const std::string& key) const {
  if (state_ == nullptr) return Status::FailedPrecondition("empty epoch pin");
  const std::string* v = state_->store->Get(key);
  if (v == nullptr) return Status::NotFound("no result for key " + key);
  return *v;
}

// ---------------------------------------------------------------------------
// EpochStore
// ---------------------------------------------------------------------------

EpochStore::EpochStore(std::string dir, bool sync)
    : dir_(std::move(dir)),
      sync_(sync),
      pins_(std::make_shared<EpochPin::PinTable>()) {}

std::string EpochStore::EpochDirName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch-%08" PRIu64, epoch);
  return buf;
}

std::string EpochStore::PartDirName(int partition) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "part-%03d", partition);
  return buf;
}

std::string EpochStore::EpochDir(uint64_t epoch) const {
  return JoinPath(dir_, EpochDirName(epoch));
}

std::string EpochStore::SlotDir(uint64_t epoch) const {
  return EpochDir(epoch) + kSlotSuffix;
}

std::string EpochStore::CurrentPath() const {
  return JoinPath(dir_, kCurrentFile);
}

Status EpochStore::ReadManifest(const std::string& dir, uint64_t* epoch,
                                uint64_t* watermark, uint64_t* generation) {
  auto payload =
      ReadCrcRecord(JoinPath(dir, kManifestFile), kManifestPayloadSize);
  if (!payload.ok()) return payload.status();
  *epoch = DecodeFixed64(payload->data());
  *watermark = DecodeFixed64(payload->data() + 8);
  if (generation != nullptr) *generation = DecodeFixed64(payload->data() + 16);
  return Status::OK();
}

StatusOr<ResultStore> EpochStore::Verify(const std::string& dir,
                                         uint64_t epoch, uint64_t watermark,
                                         int num_partitions) {
  uint64_t got_epoch = 0, got_watermark = 0;
  I2MR_RETURN_IF_ERROR(ReadManifest(dir, &got_epoch, &got_watermark));
  if (got_epoch != epoch || got_watermark != watermark) {
    return Status::FailedPrecondition(
        "epoch dir " + dir + " manifest mismatch: holds (" +
        std::to_string(got_epoch) + ", " + std::to_string(got_watermark) +
        "), expected (" + std::to_string(epoch) + ", " +
        std::to_string(watermark) + ")");
  }
  int parts = 0;
  for (;; ++parts) {
    const std::string pdir = JoinPath(dir, PartDirName(parts));
    if (!FileExists(pdir)) break;
    // Surface a torn or garbled record file now, with the damage located,
    // rather than letting the engine read garbage mid-refresh. The
    // remote-edge inbox exists only on cross-shard pipelines.
    for (std::string_view file : {"structure.dat", "state.dat", "remote.dat"}) {
      const std::string path = JoinPath(pdir, std::string(file));
      if (file == "remote.dat" && !FileExists(path)) continue;
      auto valid = ValidateRecordFile(path);
      if (!valid.ok()) return valid.status();
    }
  }
  if (num_partitions > 0 && parts != num_partitions) {
    return Status::Corruption("epoch dir " + dir + " has " +
                              std::to_string(parts) + " partitions, expected " +
                              std::to_string(num_partitions));
  }
  return ResultStore::Open(JoinPath(dir, "serving.dat"));
}

Status EpochStore::OpenSlot(uint64_t epoch) {
  // A failed earlier attempt at this epoch may have sealed its dir: the
  // rename in Seal would hit ENOTEMPTY, and its contents are stale.
  if (FileExists(EpochDir(epoch))) {
    I2MR_RETURN_IF_ERROR(RemoveAll(EpochDir(epoch)));
  }
  return ResetDir(SlotDir(epoch));
}

Status EpochStore::WriteManifest(uint64_t epoch, uint64_t watermark,
                                 uint64_t generation) {
  std::string payload;
  PutFixed64(&payload, epoch);
  PutFixed64(&payload, watermark);
  PutFixed64(&payload, generation);
  return WriteStringToFile(JoinPath(SlotDir(epoch), kManifestFile),
                           EncodeCrcRecord(payload), sync_);
}

Status EpochStore::Seal(uint64_t epoch) {
  if (sync_) I2MR_RETURN_IF_ERROR(SyncDir(SlotDir(epoch)));
  I2MR_RETURN_IF_ERROR(RenameFile(SlotDir(epoch), EpochDir(epoch)));
  if (sync_) I2MR_RETURN_IF_ERROR(SyncDir(dir_));
  return Status::OK();
}

Status EpochStore::Flip(uint64_t epoch) {
  Status flipped =
      ReplaceFileDurably(CurrentPath(), EpochDirName(epoch), sync_);
  if (!flipped.ok()) {
    (void)Recover();  // re-learn what CURRENT names
    return flipped;
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_ = epoch;
  return Status::OK();
}

std::optional<uint64_t> EpochStore::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status EpochStore::Unflip() {
  I2MR_RETURN_IF_ERROR(RemoveAll(CurrentPath()));
  if (sync_) I2MR_RETURN_IF_ERROR(SyncDir(dir_));
  std::lock_guard<std::mutex> lock(mu_);
  current_.reset();
  return Status::OK();
}

void EpochStore::Publish(uint64_t epoch, uint64_t watermark,
                         std::shared_ptr<const ResultStore> store) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_.store(epoch);
  watermark_.store(watermark);
  store_ = std::move(store);
}

StatusOr<std::optional<EpochStore::Committed>> EpochStore::Recover() {
  std::optional<Committed> committed;
  if (FileExists(CurrentPath())) {
    auto name = ReadFileToString(CurrentPath());
    if (!name.ok()) return name.status();
    Committed c;
    I2MR_RETURN_IF_ERROR(ReadManifest(JoinPath(dir_, *name), &c.epoch,
                                      &c.watermark, &c.generation));
    if (*name != EpochDirName(c.epoch)) {
      return Status::Corruption("CURRENT names " + *name +
                                ", which holds the manifest of epoch " +
                                std::to_string(c.epoch));
    }
    committed = c;
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_.reset();
  if (committed) current_ = committed->epoch;
  return committed;
}

StatusOr<uint64_t> EpochStore::PreviousEpoch(uint64_t before) const {
  auto entries = ListEpochDirs(dir_);
  if (!entries.ok()) return entries.status();
  std::optional<uint64_t> prev;
  for (const auto& entry : *entries) {
    if (entry.slot || entry.epoch >= before) continue;
    if (!prev || entry.epoch > *prev) prev = entry.epoch;
  }
  if (!prev) {
    return Status::NotFound("no epoch below " + std::to_string(before) +
                            " in " + dir_);
  }
  return *prev;
}

Status EpochStore::Collect() {
  std::optional<uint64_t> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = current_;
  }
  auto entries = ListEpochDirs(dir_);
  if (!entries.ok()) return entries.status();
  for (const auto& entry : *entries) {
    if (!entry.slot) {
      if (current == entry.epoch) continue;
      // A pinned epoch's dir stays until its last reader lets go; the
      // next Collect after the release removes it.
      std::lock_guard<std::mutex> pin_lock(pins_->mu);
      if (pins_->counts.count(entry.epoch) > 0) continue;
    }
    I2MR_RETURN_IF_ERROR(RemoveAll(entry.path));
  }
  return Status::OK();
}

EpochPin EpochStore::Pin() const {
  auto state = std::make_shared<EpochPin::State>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (store_ == nullptr) return EpochPin();
    state->epoch = epoch_.load();
    state->watermark = watermark_.load();
    state->store = store_;
    // Registered before mu_ drops: a Collect after the next Publish already
    // sees the count.
    std::lock_guard<std::mutex> pin_lock(pins_->mu);
    ++pins_->counts[state->epoch];
  }
  state->table = pins_;
  state->dir = EpochDir(state->epoch);
  return EpochPin(std::move(state));
}

std::shared_ptr<const ResultStore> EpochStore::store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_;
}

}  // namespace i2mr
