// Intermediate-value encoding for incremental processing: every shuffled
// intermediate record carries the globally unique Map-instance key MK and
// an op marker alongside V2 (paper §3.2: "i2MapReduce will preserve
// (K2, MK, V2) for each MRBGraph edge"; deletions are shuffled as
// <K2, MK, '-'>).
//
// Encoded layout: [u64 mk][u8 op][v2 bytes], where op 0x00 = deletion and
// 0x01 = insertion/upsert. With lexicographic value ordering this makes a
// deletion of (K2, MK) sort before an insertion of the same (K2, MK), so a
// delete-then-reinsert pair applies in the correct order.
#ifndef I2MR_CORE_DELTA_H_
#define I2MR_CORE_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "mrbg/chunk.h"

namespace i2mr {

/// Serialize an MRBGraph edge change for the shuffle.
std::string EncodeEdgeValue(uint64_t mk, bool deleted, std::string_view v2);

/// EncodeEdgeValue into `out`, replacing its contents (reuses its buffer).
void EncodeEdgeValueTo(uint64_t mk, bool deleted, std::string_view v2,
                       std::string* out);

/// Parse an encoded edge value into a DeltaEdge (k2 supplied by the caller).
Status DecodeEdgeValue(std::string_view data, DeltaEdge* edge);

}  // namespace i2mr

#endif  // I2MR_CORE_DELTA_H_
