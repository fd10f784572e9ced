// Unit tests for the DMA descriptors and channels: functional semantics
// (against memcpy references), rates, chaining, and contention.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "device/core_ctx.hpp"
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
    m.engine().run();
    chan.rethrow_if_failed();
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
  m.engine().run();
  chan.rethrow_if_failed();
}

TEST_F(DmaTest, RejectedChainLeavesChannelIdle) {
  auto& chan = m.core({0, 0}).dma[0];
  auto cycle = dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 256);
  cycle.chain = &cycle;
  EXPECT_THROW(chan.start(cycle), std::logic_error);
  EXPECT_FALSE(chan.busy());
  // The channel still takes a valid chain, and waiting on it returns.
  std::vector<float> data(64, 3.5f);
  fill({0, 0}, 0x4000, data);
  run_dma({0, 0}, dma::DmaDescriptor::linear(g({0, 1}, 0x5000), g({0, 0}, 0x4000), 256));
  EXPECT_FALSE(chan.busy());
  EXPECT_EQ(read({0, 1}, 0x5000, 64), data);
}

TEST_F(DmaTest, TwoChannelsRunConcurrently) {
  auto d0 = dma::DmaDescriptor::linear(g({0, 1}, 0x4000), g({0, 0}, 0x4000), 4096);
  auto d1 = dma::DmaDescriptor::linear(g({1, 0}, 0x4000), g({0, 0}, 0x5000), 4096);
  auto& c0 = m.core({0, 0}).dma[0];
  auto& c1 = m.core({0, 0}).dma[1];
  const Cycles t0 = m.engine().now();
  c0.start(d0);
  c1.start(d1);
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
  device::CoreCtx ctx(m, {0, 0}, device::GroupInfo{{0, 0}, 1, 1});
  bool returned = false;
  sim::spawn(m.engine(), [](device::CoreCtx& c, bool& r) -> sim::Op<void> {
    co_await c.dma_wait(0);
    r = true;
  }(ctx, returned));
  m.engine().run();
  EXPECT_TRUE(returned);
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


// ---- chunk commit: hooked vs. unhooked -------------------------------------
//
// Both commit through MemorySystem::copy_runs; MemoryCopyRuns.* (mem_test)
// checks that against one copy() per run.

/// Sees every access and changes nothing, so attaching it must change no
/// byte, wake or event.
struct PassThroughHook : mem::MemoryHook {
  void on_write(Addr, std::size_t, CoreCoord, Cycles) override {}
  void on_read(Addr, std::size_t, CoreCoord, Cycles) override {}
  void on_sync(CoreCoord, Cycles) override {}
};

struct CommitCase {
  dma::DmaDescriptor d;
  CoreCoord issuer;
  Addr fill;               // [fill, fill + fill_bytes) gets a non-zero pattern
  std::size_t fill_bytes;
  std::vector<Addr> flags;  // one watcher each, waiting for a non-zero word
  Addr snap;               // [snap, snap + snap_bytes) is compared afterwards
  std::size_t snap_bytes;
};

struct CommitTrace {
  std::vector<std::byte> bytes;
  std::vector<Cycles> wakes;  // per flag: the cycle its wait returned
  std::uint64_t events = 0;
  bool failed = false;        // the chain threw (e_dma_wait rethrew)
};

constexpr Cycles kPokeAt = 100000;

std::byte pattern(std::size_t i) { return static_cast<std::byte>((i * 37 + 11) & 0xFF); }

/// Run `c` on channel 0 of a fresh machine, with or without the hook. At
/// kPokeAt every flag the chain left zero is set to 1, so no watcher stays
/// parked and a watcher's wake cycle tells which write woke it.
CommitTrace commit_trace(const CommitCase& c, bool hooked) {
  machine::Machine m{arch::MachineConfig{}};
  PassThroughHook hook;
  if (hooked) m.mem().add_hook(&hook);
  std::vector<std::byte> img(c.fill_bytes);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = pattern(i);
  m.mem().write_bytes(c.fill, img, c.issuer);

  CommitTrace out;
  out.wakes.assign(c.flags.size(), 0);
  device::CoreCtx ctx(m, c.issuer, device::GroupInfo{c.issuer, 1, 1});
  for (std::size_t i = 0; i < c.flags.size(); ++i) {
    sim::spawn(m.engine(), [](device::CoreCtx& cc, Addr f, Cycles& woke) -> sim::Op<void> {
      co_await cc.wait_u32(f, [](std::uint32_t v) { return v != 0; });
      woke = cc.now();
    }(ctx, c.flags[i], out.wakes[i]));
  }
  m.engine().call_at(kPokeAt, [&] {
    for (const Addr f : c.flags) {
      if (m.mem().read_value<std::uint32_t>(f, c.issuer) == 0) {
        m.mem().write_value<std::uint32_t>(f, 1, c.issuer);
      }
    }
  });
  m.core(c.issuer).dma[0].start(c.d);
  sim::spawn(m.engine(), [](device::CoreCtx& cc, bool& failed) -> sim::Op<void> {
    try {
      co_await cc.dma_wait(0);
    } catch (const std::out_of_range&) {
      failed = true;
    }
  }(ctx, out.failed));
  m.engine().run();
  const auto snap = m.mem().resolve(c.snap, c.snap_bytes, c.issuer);
  out.bytes.assign(snap.begin(), snap.end());
  out.events = m.engine().events_processed();
  return out;
}

/// The hooked and unhooked commits of `c` agree on bytes, wake cycles,
/// events and failure.
CommitTrace expect_same_commit(const CommitCase& c) {
  const CommitTrace plain = commit_trace(c, false);
  const CommitTrace hooked = commit_trace(c, true);
  EXPECT_EQ(plain.bytes, hooked.bytes);
  EXPECT_EQ(plain.wakes, hooked.wakes);
  EXPECT_EQ(plain.events, hooked.events);
  EXPECT_EQ(plain.failed, hooked.failed);
  return plain;
}

TEST(DmaCommit, OverlappingRunsMatchTheElementWalk) {
  const auto map = arch::AddressMap::make(arch::MachineConfig{}.dims);
  const CoreCoord c{1, 1};
  struct Shape {
    dma::ElemSize elem;
    std::int32_t shift;  // dst - src, in bytes
    bool alias;          // local-alias addresses instead of global ones
  };
  for (const Shape sh : {Shape{dma::ElemSize::Word, 4, false}, Shape{dma::ElemSize::Word, -4, false},
                         Shape{dma::ElemSize::DWord, 8, false},
                         Shape{dma::ElemSize::DWord, -8, false},
                         Shape{dma::ElemSize::Word, 4, true}}) {
    const auto esz = static_cast<std::int32_t>(width(sh.elem));
    SCOPED_TRACE(testing::Message() << "esz " << esz << " shift " << sh.shift
                                    << (sh.alias ? " alias" : ""));
    const Addr base = sh.alias ? Addr{0x2000} : map.global(c, 0x2000);
    const Addr src = base + 0x100;
    dma::DmaDescriptor d;
    d.src = src;
    d.dst = src + static_cast<Addr>(sh.shift);
    d.elem = sh.elem;
    d.inner_count = 200;  // more than one 512-byte chunk
    d.outer_count = 1;
    d.src_inner_stride = esz;
    d.dst_inner_stride = esz;
    const CommitCase cc{d, c, base, 0x800, {}, base, 0x800};
    const CommitTrace got = expect_same_commit(cc);

    std::vector<std::byte> expect(0x800);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = pattern(i);
    for (std::size_t e = 0; e < d.inner_count; ++e) {
      const std::size_t s = 0x100 + e * static_cast<std::size_t>(esz);
      const std::size_t t = s + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(sh.shift));
      std::copy_n(expect.begin() + static_cast<std::ptrdiff_t>(s), esz,
                  expect.begin() + static_cast<std::ptrdiff_t>(t));
    }
    EXPECT_EQ(got.bytes, expect);
  }
}

TEST(DmaCommit, AliasAndGlobalOfOneScratchpadOverlapLikeTheElementWalk) {
  // The local alias 0x2000 and (1,1)+0x2000 are the same bytes, so a run
  // from one to the other four bytes on overlaps like alias-to-alias.
  const auto map = arch::AddressMap::make(arch::MachineConfig{}.dims);
  const CoreCoord c{1, 1};
  const Addr global = map.global(c, 0x2000);
  for (const bool alias_src : {true, false}) {
    SCOPED_TRACE(alias_src ? "alias to global" : "global to alias");
    dma::DmaDescriptor d;
    d.src = (alias_src ? Addr{0x2000} : global) + 0x100;
    d.dst = (alias_src ? global : Addr{0x2000}) + 0x104;
    d.elem = dma::ElemSize::Word;
    d.inner_count = 200;  // more than one 512-byte chunk
    d.outer_count = 1;
    d.src_inner_stride = 4;
    d.dst_inner_stride = 4;
    const CommitTrace got = expect_same_commit({d, c, global, 0x800, {}, global, 0x800});

    // The element walk carries the first source word through every word.
    std::vector<std::byte> expect(0x800);
    for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = pattern(i);
    for (std::size_t w = 1; w <= d.inner_count; ++w) {
      std::copy_n(expect.begin() + 0x100, 4,
                  expect.begin() + static_cast<std::ptrdiff_t>(0x100 + 4 * w));
    }
    EXPECT_EQ(got.bytes, expect);
  }
}

TEST(DmaCommit, StridedScatterWakesWatchersLikeThePerRunCommit) {
  const auto map = arch::AddressMap::make(arch::MachineConfig{}.dims);
  // 20 words, each to every fourth word of (0,1): 20 one-word runs in one
  // chunk, like a stencil halo column.
  dma::DmaDescriptor d = dma::DmaDescriptor::strided(
      map.global({0, 1}, 0x3000), map.global({0, 0}, 0x2000), 20, 4, 4, 16,
      dma::ElemSize::Word);
  const Addr dst = d.dst;
  const CommitCase cc{d,
                      {0, 1},
                      map.global({0, 0}, 0x2000),
                      80,
                      {dst + 5 * 16, dst + 5 * 16 + 4, dst - 3},  // inside, gap, straddling
                      dst - 16,
                      20 * 16 + 32};
  const CommitTrace got = expect_same_commit(cc);
  EXPECT_LT(got.wakes[0], kPokeAt);  // the DMA woke it
  EXPECT_GT(got.wakes[1], kPokeAt);  // only the poke did
  EXPECT_LT(got.wakes[2], kPokeAt);
}

TEST(DmaCommit, ChunkAcrossAWindowMatchesThePerRunCommit) {
  const auto map = arch::AddressMap::make(arch::MachineConfig{}.dims);
  // 128 bytes of DRAM straddling a 1 MB boundary: two runs in one chunk.
  const Addr src = map.external_base + 0x100000 - 64;
  const Addr dst = map.global({1, 1}, 0x4000);
  const CommitCase cc{dma::DmaDescriptor::linear(dst, src, 128),
                      {1, 1},
                      src,
                      128,
                      {dst + 64},
                      dst,
                      128};
  const CommitTrace got = expect_same_commit(cc);
  for (std::size_t i = 0; i < got.bytes.size(); ++i) EXPECT_EQ(got.bytes[i], pattern(i)) << i;
  EXPECT_LT(got.wakes[0], kPokeAt);
}

TEST(DmaCommit, BadRunFailsAtTheSameRun) {
  const auto map = arch::AddressMap::make(arch::MachineConfig{}.dims);
  // Words to 0x6000, 0x7000, then past the 32 KB scratchpad at 0x8000.
  const Addr dst = map.global({2, 2}, 0x6000);
  const CommitCase cc{dma::DmaDescriptor::strided(dst, map.global({2, 1}, 0x2000), 3, 4, 4,
                                                  0x1000, dma::ElemSize::Word),
                      {2, 1},
                      map.global({2, 1}, 0x2000),
                      12,
                      {},
                      dst,
                      0x2000};
  const CommitTrace got = expect_same_commit(cc);
  EXPECT_TRUE(got.failed);
  EXPECT_EQ(got.bytes[0], pattern(0));       // run 1 landed
  EXPECT_EQ(got.bytes[0x1000], pattern(4));  // run 2 landed
}

}  // namespace
