#include "serving/partition_map.h"

#include <cstdio>

#include "common/codec.h"
#include "io/env.h"

namespace i2mr {

std::string PartitionMap::ShardDirName(int shard) const {
  char buf[64];
  if (generation == 0) {
    std::snprintf(buf, sizeof(buf), "shard-%03d", shard);
  } else {
    std::snprintf(buf, sizeof(buf), "g%llu-shard-%03d",
                  static_cast<unsigned long long>(generation), shard);
  }
  return buf;
}

std::string PartitionMap::ShardMetricsPrefix(const std::string& name,
                                             int shard) const {
  std::string prefix = "serving." + name + ".";
  if (generation != 0) prefix += "g" + std::to_string(generation) + ".";
  return prefix + "shard" + std::to_string(shard);
}

std::string PartitionMap::RecordPath(const std::string& root,
                                     const std::string& name) {
  return JoinPath(root, name + ".PARTMAP");
}

Status PartitionMap::Save(const std::string& path, const PartitionMap& map,
                          bool sync) {
  std::string payload;
  PutFixed64(&payload, map.generation);
  PutFixed32(&payload, static_cast<uint32_t>(map.num_shards));
  return ReplaceFileDurably(path, EncodeCrcRecord(payload), sync);
}

StatusOr<PartitionMap> PartitionMap::Load(const std::string& path) {
  auto payload = ReadCrcRecord(path, 12);
  if (!payload.ok()) return payload.status();
  PartitionMap map;
  map.generation = DecodeFixed64(payload->data());
  map.num_shards = static_cast<int>(DecodeFixed32(payload->data() + 8));
  if (map.num_shards <= 0) {
    return Status::Corruption("partition-map record names zero shards");
  }
  return map;
}

}  // namespace i2mr
