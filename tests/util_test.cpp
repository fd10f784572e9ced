// util: the one-pass util::format against a reference snprintf on both sides
// of its stack buffer, and the one block multiply-accumulate against the
// reference matmul's dot products.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/fmt.hpp"
#include "util/reference.hpp"

namespace {

using namespace epi;

/// snprintf's own bytes: a `len`-byte output, a pad plus one digit (just
/// the empty pad at 0), formatted into a buffer sized for it.
std::string reference_format(std::size_t len) {
  const std::string pad(len == 0 ? 0 : len - 1, 'x');
  std::vector<char> buf(len + 1);
  if (len == 0) {
    std::snprintf(buf.data(), buf.size(), "%s", pad.c_str());
  } else {
    std::snprintf(buf.data(), buf.size(), "%s%u", pad.c_str(), 7u);
  }
  return {buf.data(), len};
}

TEST(UtilFormat, MatchesSnprintfAroundTheStackBuffer) {
  static_assert(util::kFormatStackBytes == 256);
  // 255 bytes is the largest output the one-pass path holds (the terminator
  // takes the last byte); 256 and up take the second pass.
  for (const std::size_t len : {0, 1, 255, 256, 257, 4096}) {
    SCOPED_TRACE(len);
    const std::string pad(len == 0 ? 0 : len - 1, 'x');
    const std::string got = len == 0 ? util::format("%s", pad.c_str())
                                     : util::format("%s%u", pad.c_str(), 7u);
    EXPECT_EQ(got.size(), len);
    EXPECT_EQ(got, reference_format(len));
  }
}

TEST(MacBlock, MatchesReferenceDotProductsBitForBit) {
  // Rectangular shapes, so a swapped m/n/k shows; inputs in [-1, 1) are not
  // exact in float, so any change to the per-element summation order shows.
  const std::size_t m = 5, n = 7, k = 9;
  std::vector<float> a(m * n), b(n * k), want(m * k), got(m * k, 0.0f);
  util::fill_random(a, 1);
  util::fill_random(b, 2);
  util::matmul_reference(a, b, want, m, n, k);
  util::mac_block(a, b, got, m, n, k);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i;
  }
}

}  // namespace
