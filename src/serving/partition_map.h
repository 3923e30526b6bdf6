// PartitionMap: the single authoritative partition function of a sharded
// computation, versioned by generation.
//
// Every layer that used to compute a shard index from a raw count —
// ShardRouter routing, CrossShardExchange ownership, bootstrap splitting,
// the engines' owns_key boundary filter, ShardSnapshot read routing and
// the replication layer — now goes through one PartitionMap value, so the
// modulus can never be computed against two different counts again (the
// old ShardOf-vs-options.num_shards divergence class of bug).
//
// Generations make the map *replaceable*: an elastic reshard builds a
// new-generation map (new shard count, fresh generation-qualified shard
// directories), bootstraps the destination fleet next to the live one,
// and publishes the new map with one durable record swap. The map is
// durable as `<root>/<name>.PARTMAP` (CRC'd, tmp+rename) next to the
// barrier record; a reset=false reopen trusts the record over whatever
// shard count the options carry, because the record is what the on-disk
// shard directories were actually partitioned by.
#ifndef I2MR_SERVING_PARTITION_MAP_H_
#define I2MR_SERVING_PARTITION_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/status.h"

namespace i2mr {

struct PartitionMap {
  /// Monotonic map version. 0 = the creation-time map; every reshard
  /// publishes generation + 1. Stamped into epoch MANIFESTs so replicas
  /// can detect that shipped state belongs to a different partitioning.
  uint64_t generation = 0;

  /// Shard count of this generation.
  int num_shards = 1;

  /// The one partition function. Everything routes through here: the
  /// stable key-hash modulus lives in this method and nowhere else.
  int ShardOf(std::string_view key) const {
    return static_cast<int>(Hash64(key) % static_cast<uint64_t>(num_shards));
  }

  /// On-disk shard directory under the router root. Generation 0 keeps
  /// the original "shard-NNN" layout (backward compatible with every
  /// pre-reshard deployment); later generations are namespaced
  /// "g<generation>-shard-NNN" so a destination fleet bootstraps next to
  /// the live donors without colliding.
  std::string ShardDirName(int shard) const;

  /// Metrics family prefix for one shard of this generation:
  /// "serving.<name>.shard<i>" at generation 0, generation-qualified
  /// ("serving.<name>.g<gen>.shard<i>") afterwards so a reshard starts a
  /// fresh per-shard series instead of polluting the donors'.
  std::string ShardMetricsPrefix(const std::string& name, int shard) const;

  friend bool operator==(const PartitionMap& a, const PartitionMap& b) {
    return a.generation == b.generation && a.num_shards == b.num_shards;
  }
  friend bool operator!=(const PartitionMap& a, const PartitionMap& b) {
    return !(a == b);
  }

  /// Durable record next to the barrier record: `<root>/<name>.PARTMAP`.
  static std::string RecordPath(const std::string& root,
                                const std::string& name);

  /// The record, [u64 generation][u32 num_shards] ‖ crc32, shared by PARTMAP
  /// and the reshard decision record (which stores the *next* map). Saved
  /// with ReplaceFileDurably (fsync'd when `sync`).
  static Status Save(const std::string& path, const PartitionMap& map,
                     bool sync);
  static StatusOr<PartitionMap> Load(const std::string& path);
};

}  // namespace i2mr

#endif  // I2MR_SERVING_PARTITION_MAP_H_
