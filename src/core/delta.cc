#include "core/delta.h"

#include "common/codec.h"

namespace i2mr {

std::string EncodeEdgeValue(uint64_t mk, bool deleted, std::string_view v2) {
  std::string out;
  out.reserve(9 + v2.size());
  EncodeEdgeValueTo(mk, deleted, v2, &out);
  return out;
}

void EncodeEdgeValueTo(uint64_t mk, bool deleted, std::string_view v2,
                       std::string* out) {
  out->clear();
  PutFixed64(out, mk);
  out->push_back(deleted ? '\x00' : '\x01');
  out->append(v2.data(), v2.size());
}

Status DecodeEdgeValue(std::string_view data, DeltaEdge* edge) {
  if (data.size() < 9) return Status::Corruption("short edge value");
  edge->mk = DecodeFixed64(data.data());
  uint8_t op = static_cast<uint8_t>(data[8]);
  if (op > 1) return Status::Corruption("bad edge op");
  edge->deleted = (op == 0);
  edge->v2.assign(data.data() + 9, data.size() - 9);
  return Status::OK();
}

}  // namespace i2mr
