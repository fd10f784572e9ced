// Unit tests for the DMA descriptors and channels: functional semantics
// (against memcpy references), rates, chaining, and contention.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "machine/machine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace {

using namespace epi;
using arch::Addr;
using arch::CoreCoord;
using sim::Cycles;

class DmaTest : public ::testing::Test {
protected:
  arch::MachineConfig cfg{};
  machine::Machine m{cfg};

  Addr g(CoreCoord c, Addr off) { return m.mem().map().global(c, off); }

  void fill(CoreCoord c, Addr off, std::span<const float> v) {
    m.mem().write_bytes(g(c, off), std::as_bytes(v), c);
  }
  std::vector<float> read(CoreCoord c, Addr off, std::size_t n) {
    std::vector<float> out(n);
    m.mem().read_bytes(g(c, off), std::as_writable_bytes(std::span(out)), c);
    return out;
  }

  /// Start a descriptor on channel 0 of `c` and run to completion.
  Cycles run_dma(CoreCoord c, const dma::DmaDescriptor& d) {
    auto& chan = m.core(c).dma[0];
    const Cycles t0 = m.engine().now();
    chan.start(d);
    sim::spawn(m.engine(), chan.wait());
    m.engine().run();
    return m.engine().now() - t0;
  }
};

TEST_F(DmaTest, LinearCopyBetweenCores) {
  std::vector<float> data(256);
  std::iota(data.begin(), data.end(), 0.0f);
  fill({0, 0}, 0x4000, data);
  auto d = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 1024);
  run_dma({0, 0}, d);
  EXPECT_EQ(read({0, 1}, 0x5000, 256), data);
}

TEST_F(DmaTest, LinearPicksDwordWhenAligned) {
  auto d8 = dma::DmaDescriptor::linear(0x5000, 0x4000, 1024);
  EXPECT_EQ(d8.elem, dma::ElemSize::DWord);
  EXPECT_EQ(d8.inner_count, 128u);
  auto d4 = dma::DmaDescriptor::linear(0x5004, 0x4000, 1024);
  EXPECT_EQ(d4.elem, dma::ElemSize::Word);
  EXPECT_EQ(d4.inner_count, 256u);
}

TEST_F(DmaTest, DwordTwiceAsFastAsWord) {
  auto dw = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 4096);
  const Cycles t_dw = run_dma({0, 0}, dw);
  auto w = dw;
  w.elem = dma::ElemSize::Word;
  w.inner_count = 1024;
  const Cycles t_w = run_dma({0, 0}, w);
  // Twice the transactions at the same per-transaction cost; fixed overhead
  // dilutes the ratio slightly.
  EXPECT_GT(static_cast<double>(t_w) / static_cast<double>(t_dw), 1.6);
}

TEST_F(DmaTest, LargeTransferApproaches2GBps) {
  // Figure 2: DMA reaches ~2 GB/s for large messages.
  auto d = dma::DmaDescriptor::linear(g({0, 1}, 0x4000), g({0, 0}, 0x4000), 8192);
  const Cycles t = run_dma({0, 0}, d);
  const double gbps = 8192.0 / (static_cast<double>(t) / cfg.timing.clock_hz) / 1e9;
  EXPECT_GT(gbps, 1.5);
  EXPECT_LT(gbps, 2.4);
}

TEST_F(DmaTest, Strided2DGatherScatter) {
  // Copy a 4x8-float column-block out of a 16-float-wide matrix into a
  // contiguous buffer.
  std::vector<float> mat(16 * 16);
  sim::Rng rng(1);
  for (auto& v : mat) v = rng.next_float();
  fill({1, 1}, 0x4000, mat);
  auto d = dma::DmaDescriptor::strided(g({1, 2}, 0x4000), g({1, 1}, 0x4000) + (2 * 16 + 4) * 4,
                                       4, 8 * 4, 16 * 4, 8 * 4, dma::ElemSize::Word);
  run_dma({1, 1}, d);
  auto out = read({1, 2}, 0x4000, 32);
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 8; ++c) {
      EXPECT_EQ(out[r * 8 + c], mat[(2 + r) * 16 + 4 + c]) << r << "," << c;
    }
  }
}

TEST_F(DmaTest, StridedColumnTransfer) {
  // One float per row (the stencil's left/right edges): inner count 1.
  std::vector<float> mat(8 * 8);
  std::iota(mat.begin(), mat.end(), 0.0f);
  fill({0, 0}, 0x4000, mat);
  auto d = dma::DmaDescriptor::strided(g({0, 1}, 0x6000), g({0, 0}, 0x4000) + 3 * 4, 8, 4,
                                       8 * 4, 4, dma::ElemSize::Word);
  run_dma({0, 0}, d);
  auto out = read({0, 1}, 0x6000, 8);
  for (unsigned r = 0; r < 8; ++r) EXPECT_EQ(out[r], mat[r * 8 + 3]);
}

TEST_F(DmaTest, ChainedDescriptorsRunInOrder) {
  std::vector<float> a(64, 1.5f);
  std::vector<float> b(64, -2.5f);
  fill({0, 0}, 0x4000, a);
  fill({0, 0}, 0x4200, b);
  auto d1 = dma::DmaDescriptor::linear(g({0, 1}, 0x5200), g({0, 0}, 0x4200), 256);
  auto d0 = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 256);
  d0.chain = &d1;
  run_dma({0, 0}, d0);
  EXPECT_EQ(read({0, 1}, 0x5000, 64), a);
  EXPECT_EQ(read({0, 1}, 0x5200, 64), b);
}

TEST_F(DmaTest, ChainCostsMoreThanSingle) {
  auto single = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 512);
  const Cycles t1 = run_dma({0, 0}, single);
  auto c1 = dma::DmaDescriptor::linear(g({0, 1}, 0x5200), g({0, 0}, 0x4200), 256);
  auto c0 = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 256);
  c0.chain = &c1;
  const Cycles t2 = run_dma({0, 0}, c0);
  EXPECT_GT(t2, t1);  // same bytes + chain latency
}

TEST_F(DmaTest, StartBusyChannelThrows) {
  auto d = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 4096);
  auto& chan = m.core({0, 0}).dma[0];
  chan.start(d);
  EXPECT_THROW(chan.start(d), std::logic_error);
  sim::spawn(m.engine(), chan.wait());
  m.engine().run();
}

TEST_F(DmaTest, TwoChannelsRunConcurrently) {
  auto d0 = dma::DmaDescriptor::linear(g({0, 1}, 0x4000), g({0, 0}, 0x4000), 4096);
  auto d1 = dma::DmaDescriptor::linear(g({1, 0}, 0x4000), g({0, 0}, 0x5000), 4096);
  auto& c0 = m.core({0, 0}).dma[0];
  auto& c1 = m.core({0, 0}).dma[1];
  const Cycles t0 = m.engine().now();
  c0.start(d0);
  c1.start(d1);
  sim::spawn(m.engine(), c0.wait());
  sim::spawn(m.engine(), c1.wait());
  m.engine().run();
  const Cycles both = m.engine().now() - t0;
  // Disjoint paths: concurrent, not 2x.
  const Cycles one = run_dma({0, 0}, d0);
  EXPECT_LT(both, one + one / 2);
}

TEST_F(DmaTest, ToExternalUsesELinkRate) {
  auto d = dma::DmaDescriptor::linear(arch::AddressMap::kExternalBase, g({0, 0}, 0x4000),
                                      8192);
  const Cycles t = run_dma({0, 0}, d);
  const double mbps = 8192.0 / (static_cast<double>(t) / cfg.timing.clock_hz) / 1e6;
  // Section V-B: at most 150 MB/s into external DRAM.
  EXPECT_LE(mbps, 151.0);
  EXPECT_GE(mbps, 100.0);
}

TEST_F(DmaTest, FromExternalMovesData) {
  std::vector<float> data(512);
  std::iota(data.begin(), data.end(), 100.0f);
  m.mem().write_bytes(arch::AddressMap::kExternalBase + 0x1000, std::as_bytes(std::span(data)),
                      {0, 0});
  auto d = dma::DmaDescriptor::linear(g({2, 2}, 0x4000),
                                      arch::AddressMap::kExternalBase + 0x1000, 2048);
  run_dma({2, 2}, d);
  EXPECT_EQ(read({2, 2}, 0x4000, 512), data);
}

TEST_F(DmaTest, WaitOnIdleChannelReturnsImmediately) {
  auto& chan = m.core({0, 0}).dma[0];
  sim::spawn(m.engine(), chan.wait());
  m.engine().run();
  EXPECT_EQ(m.engine().now(), 0u);
}

TEST_F(DmaTest, BytesMovedAccounting) {
  auto& chan = m.core({0, 0}).dma[0];
  auto d = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 1024);
  run_dma({0, 0}, d);
  EXPECT_EQ(chan.bytes_moved(), 1024u);
}

// Parameterised semantics sweep: every (elem size, inner, outer, stride)
// combination must equal the reference element walk. The element size is
// held widened to 32 bits so the case has no padding bytes: gtest names each
// case by a byte dump of it, and padding would put stack garbage into the
// test names.
struct DescCase {
  std::uint32_t elem;  // a dma::ElemSize value, i.e. the element width in bytes
  std::uint32_t inner, outer;
  std::int32_t si, di, so, dso;
};

static_assert(sizeof(DescCase) == 7 * sizeof(std::uint32_t), "DescCase must have no padding");

constexpr std::uint32_t width(dma::ElemSize e) { return static_cast<std::uint8_t>(e); }

class DmaDescSemantics : public DmaTest, public ::testing::WithParamInterface<DescCase> {};

TEST_P(DmaDescSemantics, MatchesReferenceWalk) {
  const auto& p = GetParam();
  const auto esz = p.elem;
  std::vector<std::byte> src_img(8192);
  sim::Rng rng(7);
  for (auto& b : src_img) b = static_cast<std::byte>(rng.next_below(256));
  m.mem().write_bytes(g({0, 0}, 0x2000), src_img, {0, 0});

  dma::DmaDescriptor d;
  d.src = g({0, 0}, 0x2000);
  d.dst = g({0, 1}, 0x2000);
  d.elem = static_cast<dma::ElemSize>(p.elem);
  d.inner_count = p.inner;
  d.outer_count = p.outer;
  d.src_inner_stride = p.si;
  d.dst_inner_stride = p.di;
  d.src_outer_stride = p.so;
  d.dst_outer_stride = p.dso;
  run_dma({0, 0}, d);

  // Reference walk.
  std::vector<std::byte> expect(8192);
  m.mem().read_bytes(g({0, 1}, 0x2000), expect, {0, 1});  // current state
  Addr s = 0, t = 0;
  for (std::uint32_t o = 0; o < p.outer; ++o) {
    for (std::uint32_t i = 0; i < p.inner; ++i) {
      for (std::uint32_t b = 0; b < esz; ++b) expect[t + b] = src_img[s + b];
      s += static_cast<Addr>(p.si);
      t += static_cast<Addr>(p.di);
    }
    s += static_cast<Addr>(p.so);
    t += static_cast<Addr>(p.dso);
  }
  std::vector<std::byte> got(8192);
  m.mem().read_bytes(g({0, 1}, 0x2000), got, {0, 1});
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), got.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DmaDescSemantics,
    ::testing::Values(
        DescCase{width(dma::ElemSize::Byte), 64, 1, 1, 1, 0, 0},
        DescCase{width(dma::ElemSize::HWord), 32, 4, 2, 2, 8, 8},
        DescCase{width(dma::ElemSize::Word), 16, 8, 4, 4, 64, 32},
        DescCase{width(dma::ElemSize::Word), 1, 16, 4, 4, 32, 4},      // column gather
        DescCase{width(dma::ElemSize::DWord), 8, 8, 8, 8, 128, 64},
        DescCase{width(dma::ElemSize::Word), 16, 4, 8, 4, 0, 0},       // src gap
        DescCase{width(dma::ElemSize::DWord), 16, 1, 8, 8, 0, 0}));

}  // namespace
