#include "common/codec.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace i2mr {

std::string PaddedNum(uint64_t v, int width) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%0*llu", width,
                        static_cast<unsigned long long>(v));
  return std::string(buf, n);
}

StatusOr<uint64_t> ParseNum(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty number");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad digit in number: " + std::string(s));
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view s) {
  // Fast path: from_chars parses a subset of strtod's syntax with the same
  // correctly rounded result. Only a complete parse to a normal number is
  // taken here; zero, subnormals, inf, nan, hex, leading blanks and '+'
  // signs all go to strtod, which decides range errors (ERANGE) as before.
  double d = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), d);
  if (ec == std::errc() && end == s.data() + s.size() && std::isnormal(d)) {
    return d;
  }
  std::string tmp(s);
  errno = 0;
  char* tmp_end = nullptr;
  d = std::strtod(tmp.c_str(), &tmp_end);
  if (tmp_end != tmp.c_str() + tmp.size() || errno == ERANGE) {
    return Status::InvalidArgument("bad double: " + tmp);
  }
  return d;
}

std::string FormatDouble(double d) {
  // chars_format::general at precision 17 is printf's "%.17g" (the longest
  // output, "-2.2250738585072014e-308", is 24 bytes).
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), d,
                           std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

}  // namespace i2mr
