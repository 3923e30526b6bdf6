// Binary codecs: fixed-width little-endian integers, varints and
// length-prefixed strings. Used by record files, shuffle spills and the
// MRBG-Store chunk format.
#ifndef I2MR_COMMON_CODEC_H_
#define I2MR_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace i2mr {

// ---------------------------------------------------------------------------
// Low-level fixed-width append/parse.
// ---------------------------------------------------------------------------

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v);
  buf[1] = static_cast<char>(v >> 8);
  buf[2] = static_cast<char>(v >> 16);
  buf[3] = static_cast<char>(v >> 24);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);  // little-endian hosts only (x86/arm64).
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

inline void PutDouble(std::string* dst, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  PutFixed64(dst, bits);
}

// ---------------------------------------------------------------------------
// Decoder: sequential parse over a byte buffer with error tracking.
// ---------------------------------------------------------------------------

/// Sequential decoder over a borrowed byte range. After any failed Get* the
/// decoder is marked bad and further reads fail fast.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit Decoder(std::string_view s) : Decoder(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  bool GetFixed32(uint32_t* v) {
    if (!Require(4)) return false;
    *v = DecodeFixed32(p_);
    p_ += 4;
    return true;
  }

  bool GetFixed64(uint64_t* v) {
    if (!Require(8)) return false;
    *v = DecodeFixed64(p_);
    p_ += 8;
    return true;
  }

  bool GetDouble(double* d) {
    uint64_t bits;
    if (!GetFixed64(&bits)) return false;
    std::memcpy(d, &bits, 8);
    return true;
  }

  bool GetLengthPrefixed(std::string_view* out) {
    uint32_t n;
    if (!GetFixed32(&n)) return false;
    if (!Require(n)) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    return true;
  }

  bool GetLengthPrefixed(std::string* out) {
    std::string_view v;
    if (!GetLengthPrefixed(&v)) return false;
    out->assign(v.data(), v.size());
    return true;
  }

  bool GetByte(uint8_t* b) {
    if (!Require(1)) return false;
    *b = static_cast<uint8_t>(*p_);
    ++p_;
    return true;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Human-friendly numeric <-> string key helpers.
// ---------------------------------------------------------------------------

/// Fixed-width decimal encoding so lexicographic string order == numeric
/// order (used for vertex-id keys in graph apps).
std::string PaddedNum(uint64_t v, int width = 10);

/// Parse a decimal string (with or without padding) to uint64.
StatusOr<uint64_t> ParseNum(std::string_view s);

/// Parse a double from text. Accepts exactly what strtod accepts over the
/// whole of `s` without a range error (ERANGE), with the same value.
StatusOr<double> ParseDouble(std::string_view s);

/// Format a double with enough digits to round-trip. The bytes are those of
/// printf("%.17g"): stored states and MRBGraph values are compared and
/// digested byte for byte, so this format is a contract.
std::string FormatDouble(double d);

}  // namespace i2mr

#endif  // I2MR_COMMON_CODEC_H_
