#pragma once
// printf-style std::string formatting.
//
// The repo's reports and event logs must be byte-reproducible run over run,
// so everything user-visible goes through explicit printf conversions (fixed
// precision, no locale, no iostream state). This is the one tiny helper that
// turns those conversions into owned strings.
//
// One-pass contract: format() makes a single vsnprintf into a stack buffer of
// kFormatStackBytes and builds the string from it. Only output that does not
// fit (kFormatStackBytes bytes or more: the terminator needs room too) takes a
// second vsnprintf, into a string sized from the first call's return value.
// Either way the bytes are exactly snprintf's; an encoding error yields "".

#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>

namespace epi::util {

/// Stack buffer of format()'s one-pass path.
inline constexpr std::size_t kFormatStackBytes = 256;

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
format(const char* f, ...) {
  char buf[kFormatStackBytes];
  std::va_list ap;
  va_start(ap, f);
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    const auto len = static_cast<std::size_t>(n);
    if (len < sizeof buf) {
      out.assign(buf, len);
    } else {
      out.resize(len);
      std::vsnprintf(out.data(), len + 1, f, ap2);
    }
  }
  va_end(ap2);
  return out;
}

}  // namespace epi::util
