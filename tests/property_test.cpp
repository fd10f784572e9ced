// Property-based tests: determinism of the whole stack, fuzzed DMA
// descriptor semantics, stencil correctness under random weights and
// decompositions, and conservation laws of the eLink arbiter.

#include <gtest/gtest.h>

#include "core/matmul.hpp"
#include "core/microbench.hpp"
#include "core/stencil.hpp"
#include "dma/descriptor.hpp"
#include "machine/machine.hpp"
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

class DmaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DmaFuzz, RandomDescriptorMatchesReferenceWalk) {
  sim::Rng rng(GetParam());
  arch::MachineConfig mc;
  machine::Machine m(mc);
  const CoreCoord src_core{0, 0};
  const CoreCoord dst_core{1, 1};
  const Addr src_base = m.mem().map().global(src_core, 0x2000);
  const Addr dst_base = m.mem().map().global(dst_core, 0x2000);

  // Seed source memory.
  std::vector<std::byte> img(24576);
  for (auto& b : img) b = static_cast<std::byte>(rng.next_below(256));
  m.mem().write_bytes(src_base, img, src_core);

  // Draw a random but in-bounds 2D descriptor.
  static constexpr dma::ElemSize kElems[] = {dma::ElemSize::Byte, dma::ElemSize::HWord,
                                             dma::ElemSize::Word, dma::ElemSize::DWord};
  dma::DmaDescriptor d;
  d.elem = kElems[rng.next_below(4)];
  const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
  d.inner_count = 1 + static_cast<std::uint32_t>(rng.next_below(16));
  d.outer_count = 1 + static_cast<std::uint32_t>(rng.next_below(8));
  d.src_inner_stride = static_cast<std::int32_t>(esz * (1 + rng.next_below(3)));
  d.dst_inner_stride = static_cast<std::int32_t>(esz * (1 + rng.next_below(3)));
  d.src_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.dst_outer_stride = static_cast<std::int32_t>(esz * rng.next_below(5));
  d.src = src_base;
  d.dst = dst_base;

  // Reference walk over a shadow image.
  std::vector<std::byte> shadow(24576);
  m.mem().read_bytes(dst_base, shadow, dst_core);
  {
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
  }

  auto& chan = m.core(src_core).dma[0];
  chan.start(d);
  m.engine().run();
  chan.rethrow_if_failed();

  std::vector<std::byte> got(24576);
  m.mem().read_bytes(dst_base, got, dst_core);
  EXPECT_TRUE(std::equal(shadow.begin(), shadow.end(), got.begin()))
      << "seed " << GetParam();
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
