// Property-based tests: determinism of the whole stack, fuzzed DMA
// descriptor semantics, stencil correctness under random weights and
// decompositions, and conservation laws of the eLink arbiter.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/matmul.hpp"
#include "core/microbench.hpp"
#include "core/stencil.hpp"
#include "dma/descriptor.hpp"
#include "machine/machine.hpp"
#include "mem/hook.hpp"
#include "sim/random.hpp"

namespace {

using namespace epi;
using arch::Addr;
using arch::CoreCoord;
using sim::Cycles;

// ---- determinism ------------------------------------------------------------

TEST(Determinism, StencilRunsAreBitReproducible) {
  auto run = [] {
    host::System sys;
    core::StencilConfig cfg;
    cfg.rows = 16;
    cfg.cols = 12;
    cfg.iters = 7;
    auto ex = core::run_stencil_experiment(sys, 2, 3, cfg, 99, true);
    return std::make_pair(ex.result.cycles, ex.max_error);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second, 0.0f);
}

TEST(Determinism, MatmulRunsAreBitReproducible) {
  auto run = [] {
    host::System sys;
    return core::run_matmul_onchip(sys, 4, 16, core::Codegen::TunedAsm, 5, false).cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, MicrobenchReproducible) {
  auto run = [] {
    host::System sys;
    return core::measure_elink_contention(sys, 4, 4, 2048, 0.003);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].iterations, b.nodes[i].iterations);
  }
}

// ---- fuzzed DMA descriptors --------------------------------------------------

/// A seeded 24 KB source image on core (0,0) and a destination on core
/// (1,1), both at offset 0x2000, plus the reference walk a descriptor
/// between them must match.
class DmaFuzz : public ::testing::TestWithParam<std::uint64_t> {
protected:
  static constexpr std::size_t kBytes = 24576;
  const CoreCoord src_core{0, 0};
  const CoreCoord dst_core{1, 1};
  sim::Rng rng{GetParam()};
  arch::MachineConfig mc;
  machine::Machine m{mc};
  const Addr src_base = m.mem().map().global(src_core, 0x2000);
  const Addr dst_base = m.mem().map().global(dst_core, 0x2000);
  std::vector<std::byte> img = std::vector<std::byte>(kBytes);

  void SetUp() override {
    for (auto& b : img) b = static_cast<std::byte>(rng.next_below(256));
    m.mem().write_bytes(src_base, img, src_core);
  }

  dma::ElemSize draw_elem() {
    static constexpr dma::ElemSize kElems[] = {dma::ElemSize::Byte, dma::ElemSize::HWord,
                                               dma::ElemSize::Word, dma::ElemSize::DWord};
    return kElems[rng.next_below(4)];
  }

  /// The destination image after an element-by-element walk of `d`.
  std::vector<std::byte> reference(const dma::DmaDescriptor& d) {
    const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
    std::vector<std::byte> shadow(kBytes);
    m.mem().read_bytes(dst_base, shadow, dst_core);
    std::size_t s = 0, t = 0;
    for (std::uint32_t o = 0; o < d.outer_count; ++o) {
      for (std::uint32_t i = 0; i < d.inner_count; ++i) {
        for (std::uint32_t b = 0; b < esz; ++b) shadow[t + b] = img[s + b];
        s += static_cast<std::size_t>(d.src_inner_stride);
        t += static_cast<std::size_t>(d.dst_inner_stride);
      }
      s += static_cast<std::size_t>(d.src_outer_stride);
      t += static_cast<std::size_t>(d.dst_outer_stride);
    }
    return shadow;
  }

  /// Run `d` on the source core's channel 0 and return the destination image.
  std::vector<std::byte> run(const dma::DmaDescriptor& d) {
    auto& chan = m.core(src_core).dma[0];
    chan.start(d);
    m.engine().run();
    chan.rethrow_if_failed();
    std::vector<std::byte> got(kBytes);
    m.mem().read_bytes(dst_base, got, dst_core);
    return got;
  }
};

TEST_P(DmaFuzz, RandomDescriptorMatchesReferenceWalk) {
  // Draw a random but in-bounds 2D descriptor.
  dma::DmaDescriptor d;
  d.elem = draw_elem();
  const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
  d.inner_count = 1 + static_cast<std::uint32_t>(rng.next_below(16));
  d.outer_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  d.src_inner_stride = static_cast<std::int32_t>(esz * (1 + rng.next_below(3)));
  d.dst_inner_stride = static_cast<std::int32_t>(esz * (1 + rng.next_below(3)));
  d.src_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.dst_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.src = src_base;
  d.dst = dst_base;
  EXPECT_EQ(run(d), reference(d)) << "seed " << GetParam();
}

/// Records every write the memory system commits, as (canonical address,
/// bytes). Attaching it also sends each DMA chunk through the run-by-run
/// commit, so every coalesced run shows as one write.
struct WriteLog : mem::MemoryHook {
  std::vector<std::pair<Addr, std::size_t>> writes;
  void on_write(Addr a, std::size_t n, CoreCoord, Cycles) override { writes.emplace_back(a, n); }
  void on_read(Addr, std::size_t, CoreCoord, Cycles) override {}
  void on_sync(CoreCoord, Cycles) override {}
};

/// The writes an element-at-a-time walk of `d` commits. Elements go out in
/// chunks of `chunk_elems`; inside a chunk an element joins the previous run
/// when it follows that run on both sides and its last byte stays in the
/// 1 MB window of the run's first byte on each side.
std::vector<std::pair<Addr, std::size_t>> element_walk_writes(const dma::DmaDescriptor& d,
                                                              std::uint32_t chunk_elems) {
  const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
  struct Run {
    Addr src, dst;
    std::uint32_t elems;
  };
  std::vector<std::pair<Addr, std::size_t>> out;
  std::vector<Run> chunk;
  std::uint32_t in_chunk = 0;
  const auto flush = [&] {
    for (const Run& r : chunk) out.emplace_back(r.dst, std::size_t{r.elems} * esz);
    chunk.clear();
    in_chunk = 0;
  };
  const auto same_window = [](Addr a, Addr b) { return (a >> 20) == (b >> 20); };
  Addr s = d.src, t = d.dst;
  for (std::uint32_t o = 0; o < d.outer_count; ++o) {
    for (std::uint32_t i = 0; i < d.inner_count; ++i) {
      Run* r = chunk.empty() ? nullptr : &chunk.back();
      if (r != nullptr && r->src + r->elems * esz == s && r->dst + r->elems * esz == t &&
          same_window(r->src, s + esz - 1) && same_window(r->dst, t + esz - 1)) {
        ++r->elems;
      } else {
        chunk.push_back(Run{s, t, 1});
      }
      if (++in_chunk == chunk_elems) flush();
      s += static_cast<Addr>(d.src_inner_stride);
      t += static_cast<Addr>(d.dst_inner_stride);
    }
    s += static_cast<Addr>(d.src_outer_stride);
    t += static_cast<Addr>(d.dst_outer_stride);
  }
  flush();
  return out;
}

/// Rows contiguous on both sides and longer than one chunk: the bytes, the
/// committed runs and the completion cycle must be the element walk's.
TEST_P(DmaFuzz, ContiguousRowsMatchElementWalk) {
  // Completion cycles of the element-at-a-time walk, per seed.
  static const std::map<std::uint64_t, Cycles> kDone = {
      {1, 3120},  {2, 1237},   {3, 877},   {5, 24159}, {8, 7889},    {13, 2708},
      {21, 5538}, {34, 26420}, {55, 4793}, {89, 17265}, {144, 3098}, {233, 1555}};
  dma::DmaDescriptor d;
  d.elem = draw_elem();
  const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
  const std::uint32_t chunk_elems = mc.timing.dma_chunk_bytes / esz;
  d.inner_count = chunk_elems + 1 + static_cast<std::uint32_t>(rng.next_below(2 * chunk_elems));
  d.outer_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  d.src_inner_stride = static_cast<std::int32_t>(esz);
  d.dst_inner_stride = static_cast<std::int32_t>(esz);
  d.src_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.dst_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.src = src_base;
  d.dst = dst_base;

  const std::vector<std::byte> want = reference(d);
  WriteLog log;
  m.mem().add_hook(&log);
  EXPECT_EQ(run(d), want);
  EXPECT_EQ(log.writes, element_walk_writes(d, chunk_elems));
  EXPECT_EQ(m.engine().now(), kDone.at(GetParam()));
}

/// A linear DRAM-to-scratchpad copy whose source crosses a 1 MB boundary
/// inside the DRAM window: the runs split at the boundary exactly as the
/// element walk splits them.
TEST(DmaWalk, LinearDramSourceCrossingAWindowSplitsItsRun) {
  arch::MachineConfig mc;
  machine::Machine m(mc);
  const CoreCoord owner{0, 0};
  const Addr boundary = m.mem().map().external_base + 0x100000;
  const Addr src = boundary - 0x300;
  const Addr dst = m.mem().map().global(owner, 0x4000);
  std::vector<std::byte> img(0x1000);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<std::byte>(i * 7 + 3);
  m.mem().write_bytes(src, img, owner);

  const auto d = dma::DmaDescriptor::linear(dst, src, 0x1000);
  ASSERT_EQ(d.elem, dma::ElemSize::DWord);
  WriteLog log;
  m.mem().add_hook(&log);
  auto& chan = m.core(owner).dma[0];
  chan.start(d);
  m.engine().run();
  chan.rethrow_if_failed();

  std::vector<std::byte> got(0x1000);
  m.mem().read_bytes(dst, got, owner);
  EXPECT_EQ(got, img);
  const auto want = element_walk_writes(d, mc.timing.dma_chunk_bytes / 8);
  ASSERT_EQ(want.size(), 9u);  // eight 512-byte chunks, one split at the boundary
  EXPECT_EQ(want[1], std::make_pair(dst + 0x200, std::size_t{0x100}));
  EXPECT_EQ(want[2], std::make_pair(dst + 0x300, std::size_t{0x100}));
  EXPECT_EQ(log.writes, want);
  EXPECT_EQ(m.engine().now(), Cycles{18384});
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u,
                                           144u, 233u));

// ---- stencil properties --------------------------------------------------------

class StencilWeightFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StencilWeightFuzz, RandomWeightsExactOnRandomDecomposition) {
  sim::Rng rng(GetParam());
  host::System sys;
  core::StencilConfig cfg;
  cfg.rows = 4 + static_cast<unsigned>(rng.next_below(12));
  cfg.cols = 4 + static_cast<unsigned>(rng.next_below(12));
  cfg.iters = 1 + static_cast<unsigned>(rng.next_below(5));
  cfg.weights.top = rng.next_float(-0.5f, 0.5f);
  cfg.weights.bottom = rng.next_float(-0.5f, 0.5f);
  cfg.weights.left = rng.next_float(-0.5f, 0.5f);
  cfg.weights.right = rng.next_float(-0.5f, 0.5f);
  cfg.weights.centre = rng.next_float(-0.5f, 0.5f);
  const unsigned gr = 1 + static_cast<unsigned>(rng.next_below(4));
  const unsigned gc = 1 + static_cast<unsigned>(rng.next_below(4));
  auto ex = core::run_stencil_experiment(sys, gr, gc, cfg, GetParam() * 7919, true);
  EXPECT_EQ(ex.max_error, 0.0f) << gr << "x" << gc << " tile " << cfg.rows << "x"
                                << cfg.cols << " iters " << cfg.iters;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StencilWeightFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u, 99u,
                                           110u));

TEST(StencilProperty, ZeroIterationsLeavesGridUntouched) {
  host::System sys;
  core::StencilConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.iters = 0;
  std::vector<float> grid(10 * 10);
  util::fill_random(grid, 3);
  const std::vector<float> before(grid);
  (void)core::run_stencil(sys, 1, 1, cfg, grid);
  EXPECT_EQ(util::max_abs_diff(grid, before), 0.0f);
}

TEST(StencilProperty, CyclesScaleLinearlyWithIterations) {
  auto cycles_for = [](unsigned iters) {
    host::System sys;
    core::StencilConfig cfg;
    cfg.rows = 20;
    cfg.cols = 20;
    cfg.iters = iters;
    cfg.communicate = false;
    return core::run_stencil_experiment(sys, 1, 1, cfg, 1, false).result.cycles;
  };
  const Cycles c10 = cycles_for(10);
  const Cycles c20 = cycles_for(20);
  EXPECT_EQ(c20, 2 * c10);
}

// ---- matmul properties -----------------------------------------------------------

class MatmulRectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatmulRectFuzz, RandomRectangularBlocksVerify) {
  sim::Rng rng(GetParam());
  host::System sys;
  const unsigned g = 2 + static_cast<unsigned>(rng.next_below(3));  // 2..4
  // Even per-core dims in [4, 16] keep every comm scheme eligible.
  const auto dim = [&] { return 4 + 2 * static_cast<unsigned>(rng.next_below(7)); };
  const unsigned m = dim(), n = dim(), k = dim();
  auto r = core::run_matmul_onchip_rect(sys, g, m, n, k, core::Codegen::TunedAsm,
                                        GetParam() * 31, true);
  EXPECT_TRUE(r.verified) << "g=" << g << " " << m << "x" << n << "x" << k
                          << " err=" << r.max_error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatmulRectFuzz,
                         ::testing::Values(7u, 14u, 21u, 28u, 35u, 42u, 49u, 56u));

TEST(MatmulProperty, IdentityTimesMatrixIsMatrix) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  auto& ctx = wg.ctx(0, 0);
  const unsigned n = 16;
  std::vector<float> ident(n * n, 0.0f);
  for (unsigned i = 0; i < n; ++i) ident[i * n + i] = 1.0f;
  std::vector<float> b(n * n);
  util::fill_random(b, 123);
  std::vector<float> c(n * n, 0.0f);
  sys.write_array<float>(ctx.my_global(core::MatmulLayout::kARegion),
                         std::span<const float>(ident));
  sys.write_array<float>(ctx.my_global(core::MatmulLayout::kBRegion),
                         std::span<const float>(b));
  sys.write_array<float>(ctx.my_global(core::MatmulLayout::kC), std::span<const float>(c));
  // Reuse the single-core runner indirectly: multiply via the public entry.
  // (run_matmul_single generates its own operands, so drive the reference
  // check by hand here.)
  std::vector<float> ref(n * n);
  util::matmul_reference(ident, b, ref, n, n, n);
  EXPECT_EQ(util::max_abs_diff(ref, b), 0.0f);
}

// ---- eLink conservation -------------------------------------------------------

TEST(ELinkProperty, ServedBytesAreConserved) {
  host::System sys;
  auto res = core::measure_elink_contention(sys, 4, 4, 1024, 0.002);
  const std::uint64_t served = sys.machine().elink_write().total_bytes_served();
  std::uint64_t counted = 0;
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      counted += sys.machine().elink_write().bytes_served({r, c});
    }
  }
  EXPECT_EQ(served, counted);
  // Iteration counts only include the in-window blocks, so they bound the
  // arbiter's served bytes from below.
  std::uint64_t window_bytes = 0;
  for (const auto& n : res.nodes) window_bytes += n.iterations * 1024;
  EXPECT_LE(window_bytes, served);
}

TEST(ELinkProperty, UtilizationNeverExceedsUnity) {
  host::System sys;
  auto res = core::measure_elink_contention(sys, 8, 8, 2048, 0.004);
  double total = 0.0;
  for (const auto& n : res.nodes) {
    EXPECT_GE(n.utilization, 0.0);
    EXPECT_LE(n.utilization, 1.0);
    total += n.utilization;
  }
  EXPECT_LE(total, 1.01);
}

}  // namespace
