#pragma once
// Command-line parsing shared by the tools (epi_serve, epi_fault, epi_trace)
// and the bench binaries: `--flag=value` matching plus strict numeric values.
// A numeric value must be the whole token, carry no sign, and lie in the
// flag's range; anything else throws UsageError naming the flag, which the
// binary's main prints as "<tool>: --flag needs ..." before exiting with
// status 2. Workload specs and fault plans read their numbers the same way.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace epi::cli {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();
// Upper bounds that keep a typo from becoming an allocation failure or a
// run that never ends.
inline constexpr std::uint64_t kMaxJobs = 100'000;
inline constexpr std::uint64_t kMaxCycles = 1'000'000'000'000;
inline constexpr std::uint64_t kMaxFaults = 10'000;
// Mesh extents stop where 32-bit addressing does (arch::AddressMap); a
// cluster's chip grid is at most 8x8.
inline constexpr unsigned kMaxMeshExtent = 63;
inline constexpr unsigned kMaxChipExtent = 8;
// A simulated-seconds value is capped at five times the paper's 2.0 s eLink
// window, so a typo such as 1e9 cannot become a run that never ends.
inline constexpr double kMaxSeconds = 10.0;

/// True when `arg` is `flag=VALUE` with a non-empty VALUE, copied to `out`.
inline bool value_flag(std::string_view arg, std::string_view flag,
                       std::string& out) {
  if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    out = std::string(arg.substr(flag.size() + 1));
    return true;
  }
  return false;
}

/// True when all of `s` is a decimal integer in [lo, hi]; no sign, no
/// spaces, no suffix.
inline bool read_uint(std::string_view s, std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size() && out >= lo && out <= hi;
}

/// True when all of `s` is a finite decimal number with no sign, no spaces
/// and no suffix (from_chars alone accepts a leading '-', "nan" and "inf").
inline bool read_double(std::string_view s, double& out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return !s.empty() && s[0] != '-' && ec == std::errc{} && p == end &&
         std::isfinite(out);
}

/// All of `text` as an integer in [lo, hi] (hi defaults to T's maximum)
/// parsed into `out`; anything else throws UsageError "<what> needs an
/// integer in [lo, hi], got '<text>'".
template <typename T>
void read_into(std::string_view what, std::string_view text, T& out,
               std::uint64_t lo = 0,
               std::uint64_t hi = std::numeric_limits<T>::max()) {
  std::uint64_t v = 0;
  if (!read_uint(text, lo, hi, v) || v > std::numeric_limits<T>::max()) {
    throw UsageError(std::string(what) + " needs an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + std::string(text) + "'");
  }
  out = static_cast<T>(v);
}

/// `flag=N` with N in [lo, hi] parsed into `out`; false if `arg` is another
/// flag.
template <typename T>
bool uint_flag(std::string_view arg, std::string_view flag, T& out,
               std::uint64_t lo, std::uint64_t hi) {
  std::string val;
  if (!value_flag(arg, flag, val)) return false;
  read_into(flag, val, out, lo, hi);
  return true;
}

/// `flag=F` with F a fraction in [0, 1] parsed into `out`.
inline bool fraction_flag(std::string_view arg, std::string_view flag,
                          double& out) {
  std::string val;
  if (!value_flag(arg, flag, val)) return false;
  double v = 0.0;
  if (!read_double(val, v) || v > 1.0) {
    throw UsageError(std::string(flag) + " needs a fraction in [0, 1], got '" +
                     val + "'");
  }
  out = v;
  return true;
}

/// `text` as simulated seconds in (0, kMaxSeconds]; anything else throws
/// UsageError naming `name` (a flag or a positional argument).
inline double seconds(std::string_view name, std::string_view text) {
  double v = 0.0;
  if (!read_double(text, v) || !(v > 0.0 && v <= kMaxSeconds)) {
    throw UsageError(std::string(name) +
                     " needs simulated seconds in (0, " +
                     std::to_string(static_cast<int>(kMaxSeconds)) + "], got '" +
                     std::string(text) + "'");
  }
  return v;
}

/// `flag=S` with S parsed by seconds() into `out`.
inline bool seconds_flag(std::string_view arg, std::string_view flag,
                         double& out) {
  std::string val;
  if (!value_flag(arg, flag, val)) return false;
  out = seconds(flag, val);
  return true;
}

/// `flag=RxC` with both extents in [1, max_extent].
inline bool grid_flag(std::string_view arg, std::string_view flag,
                      unsigned& rows, unsigned& cols, unsigned max_extent) {
  std::string val;
  if (!value_flag(arg, flag, val)) return false;
  const std::string_view v = val;
  const auto x = v.find('x');
  std::uint64_t r = 0, c = 0;
  if (x == std::string_view::npos || !read_uint(v.substr(0, x), 1, max_extent, r) ||
      !read_uint(v.substr(x + 1), 1, max_extent, c)) {
    throw UsageError(std::string(flag) + " needs RxC with both in [1, " +
                     std::to_string(max_extent) + "] (e.g. 2x2), got '" + val +
                     "'");
  }
  rows = static_cast<unsigned>(r);
  cols = static_cast<unsigned>(c);
  return true;
}

}  // namespace epi::cli
