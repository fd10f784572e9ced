#include "core/matmul.hpp"

#include <algorithm>
#include <stdexcept>

#include "dma/descriptor.hpp"
#include "trace/tracer.hpp"
#include "util/reference.hpp"

namespace epi::core {

namespace {

using arch::Addr;
using arch::CoreCoord;
using arch::Dir;
using sim::Cycles;

// Synchronisation flag words (monotone generation counters).
constexpr Addr kAFree = MatmulLayout::kFlags + 0x00;
constexpr Addr kAReady = MatmulLayout::kFlags + 0x04;
constexpr Addr kBFree = MatmulLayout::kFlags + 0x08;
constexpr Addr kBReady = MatmulLayout::kFlags + 0x0C;

constexpr Addr ring_slot(Addr region, unsigned idx) {
  return region + idx * MatmulLayout::kHalfSlot;
}
constexpr Addr db_buf(Addr region, unsigned q) { return region + q * 0xC00; }

/// How an operand block lives in the scratchpad.
enum class CommScheme {
  None,          // single core / no rotation
  DoubleBuffer,  // two full block buffers per operand (b <= 27)
  SplitRing,     // three 2 KB half-slots per operand (the paper's scheme)
};

struct CannonCfg {
  unsigned g = 1;  // workgroup edge
  unsigned m = 32, n = 32, k = 32;  // per-core block dims
  Codegen cg = Codegen::TunedAsm;
  CommScheme scheme = CommScheme::SplitRing;

  [[nodiscard]] std::uint32_t a_bytes() const { return m * n * 4; }
  [[nodiscard]] std::uint32_t b_bytes() const { return n * k * 4; }
};

CommScheme pick_scheme(unsigned g, unsigned m, unsigned n, unsigned k) {
  if (g == 1) return CommScheme::None;
  const std::uint32_t a_bytes = m * n * 4;
  const std::uint32_t b_bytes = n * k * 4;
  if (a_bytes <= 0xC00 && b_bytes <= 0xC00) return CommScheme::DoubleBuffer;
  if (a_bytes <= 0x1000 && b_bytes <= 0x1000 && m % 2 == 0 && n % 2 == 0) {
    return CommScheme::SplitRing;
  }
  throw std::invalid_argument("per-core blocks do not fit the matmul scratchpad layout");
}

/// Addresses of the two halves (rows [0,m/2) and [m/2,m)) of an operand
/// block for the current ring parity / double-buffer parity.
struct BlockAddrs {
  Addr half0 = 0;
  Addr half1 = 0;  // == half0 + size/2 when contiguous
};

BlockAddrs operand_addrs(Addr region, CommScheme scheme, unsigned parity,
                         std::uint32_t bytes) {
  switch (scheme) {
    case CommScheme::None:
      return {region, region + bytes / 2};
    case CommScheme::DoubleBuffer: {
      const Addr base = db_buf(region, parity % 2);
      return {base, base + bytes / 2};
    }
    case CommScheme::SplitRing: {
      const unsigned p = parity % 3;
      return {ring_slot(region, p), ring_slot(region, (p + 1) % 3)};
    }
  }
  return {};
}

/// Functional gather of a block into a contiguous host-side buffer.
void load_block(device::CoreCtx& ctx, BlockAddrs a, unsigned rows, unsigned cols,
                std::vector<float>& out) {
  out.resize(static_cast<std::size_t>(rows) * cols);
  const unsigned half_rows = rows / 2;
  auto h0 = ctx.local_array<float>(a.half0, static_cast<std::size_t>(half_rows) * cols);
  auto h1 = ctx.local_array<float>(a.half1,
                                   static_cast<std::size_t>(rows - half_rows) * cols);
  std::copy(h0.begin(), h0.end(), out.begin());
  std::copy(h1.begin(), h1.end(), out.begin() + h0.size());
}

struct CannonCounters {
  Cycles compute = 0;
  Cycles comm = 0;
  Cycles paging = 0;
};

/// One compute step: charge the schedule, then apply functionally.
sim::Op<void> compute_step(device::CoreCtx& ctx, const CannonCfg& cfg, unsigned parity,
                           CannonCounters& cnt, std::vector<float>& abuf,
                           std::vector<float>& bbuf) {
  const Cycles t0 = ctx.now();
  co_await ctx.compute(MatmulSchedule::block_cycles(cfg.m, cfg.n, cfg.k, cfg.cg));
  ctx.count_flops(MatmulSchedule::block_flops(cfg.m, cfg.n, cfg.k));
  load_block(ctx, operand_addrs(MatmulLayout::kARegion, cfg.scheme, parity, cfg.a_bytes()),
             cfg.m, cfg.n, abuf);
  load_block(ctx, operand_addrs(MatmulLayout::kBRegion, cfg.scheme, parity, cfg.b_bytes()),
             cfg.n, cfg.k, bbuf);
  auto c = ctx.local_array<float>(MatmulLayout::kC,
                                  static_cast<std::size_t>(cfg.m) * cfg.k);
  util::mac_block(abuf, bbuf, c, cfg.m, cfg.n, cfg.k);
  cnt.compute += ctx.now() - t0;
}

/// The g compute steps + g-1 rotations of one on-chip Cannon phase.
/// `parity` and `round` persist across phases (off-chip paging reuses the
/// rotated storage layout); both are advanced in lock-step on every core.
sim::Op<void> cannon_phase(device::CoreCtx& ctx, CannonCfg cfg, unsigned& parity,
                           std::uint32_t& round, CannonCounters& cnt) {
  std::vector<float> abuf;
  std::vector<float> bbuf;
  const CoreCoord west = ctx.neighbour_wrap(Dir::West);
  const CoreCoord east = ctx.neighbour_wrap(Dir::East);
  const CoreCoord north = ctx.neighbour_wrap(Dir::North);
  const CoreCoord south = ctx.neighbour_wrap(Dir::South);

  for (unsigned s = 0; s < cfg.g; ++s) {
    if (cfg.scheme == CommScheme::DoubleBuffer) {
      // Tell the senders (east for A, south for B) that our back buffers
      // are writable for this round. Posted before computing so transfers
      // overlap with our compute phase.
      ++round;
      co_await ctx.write_u32(ctx.global(east, kAFree), round);
      co_await ctx.write_u32(ctx.global(south, kBFree), round);
      co_await compute_step(ctx, cfg, parity, cnt, abuf, bbuf);
      if (s + 1 == cfg.g) break;

      const Cycles t0 = ctx.now();
      co_await ctx.wait_u32_ge(ctx.my_global(kAFree), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kBFree), round);
      const BlockAddrs mya =
          operand_addrs(MatmulLayout::kARegion, cfg.scheme, parity, cfg.a_bytes());
      const BlockAddrs myb =
          operand_addrs(MatmulLayout::kBRegion, cfg.scheme, parity, cfg.b_bytes());
      const Addr wdst = ctx.global(west, db_buf(MatmulLayout::kARegion, (parity + 1) % 2));
      const Addr ndst = ctx.global(north, db_buf(MatmulLayout::kBRegion, (parity + 1) % 2));
      // A rotates first, then B, as in the paper's Figures 10-13 (the two
      // operands are staged through the same transfer machinery in turn).
      co_await ctx.dma_set_desc();
      auto da = dma::DmaDescriptor::linear(wdst, ctx.my_global(mya.half0), cfg.a_bytes());
      co_await ctx.dma_start(0, da);
      co_await ctx.dma_wait(0);
      co_await ctx.dma_set_desc();
      auto db = dma::DmaDescriptor::linear(ndst, ctx.my_global(myb.half0), cfg.b_bytes());
      co_await ctx.dma_start(1, db);
      co_await ctx.dma_wait(1);
      co_await ctx.write_u32(ctx.global(west, kAReady), round);
      co_await ctx.write_u32(ctx.global(north, kBReady), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kAReady), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kBReady), round);
      parity = (parity + 1) % 2;
      cnt.comm += ctx.now() - t0;
    } else if (cfg.scheme == CommScheme::SplitRing) {
      co_await compute_step(ctx, cfg, parity, cnt, abuf, bbuf);
      if (s + 1 == cfg.g) break;

      const Cycles t0 = ctx.now();
      ++round;
      const unsigned p = parity % 3;
      const unsigned free_slot = (p + 2) % 3;
      // Stage the lower halves into the neighbours' spare half-slots
      // (always free -- Figures 10/11).
      // A's lower half first, then B's, as in Figures 10 and 11.
      co_await ctx.dma_set_desc();
      auto da0 = dma::DmaDescriptor::linear(
          ctx.global(west, ring_slot(MatmulLayout::kARegion, free_slot)),
          ctx.my_global(ring_slot(MatmulLayout::kARegion, p)), cfg.a_bytes() / 2);
      co_await ctx.dma_start(0, da0);
      co_await ctx.dma_wait(0);
      co_await ctx.dma_set_desc();
      auto db0 = dma::DmaDescriptor::linear(
          ctx.global(north, ring_slot(MatmulLayout::kBRegion, free_slot)),
          ctx.my_global(ring_slot(MatmulLayout::kBRegion, p)), cfg.b_bytes() / 2);
      co_await ctx.dma_start(1, db0);
      co_await ctx.dma_wait(1);
      // Our lower slots are now re-usable: tell the cores that write into us.
      co_await ctx.write_u32(ctx.global(east, kAFree), round);
      co_await ctx.write_u32(ctx.global(south, kBFree), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kAFree), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kBFree), round);
      // Upper halves replace the neighbours' vacated lower slots
      // (Figures 12/13).
      co_await ctx.dma_set_desc();
      auto da1 = dma::DmaDescriptor::linear(
          ctx.global(west, ring_slot(MatmulLayout::kARegion, p)),
          ctx.my_global(ring_slot(MatmulLayout::kARegion, (p + 1) % 3)), cfg.a_bytes() / 2);
      co_await ctx.dma_start(0, da1);
      co_await ctx.dma_wait(0);
      co_await ctx.dma_set_desc();
      auto db1 = dma::DmaDescriptor::linear(
          ctx.global(north, ring_slot(MatmulLayout::kBRegion, p)),
          ctx.my_global(ring_slot(MatmulLayout::kBRegion, (p + 1) % 3)), cfg.b_bytes() / 2);
      co_await ctx.dma_start(1, db1);
      co_await ctx.dma_wait(1);
      co_await ctx.write_u32(ctx.global(west, kAReady), round);
      co_await ctx.write_u32(ctx.global(north, kBReady), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kAReady), round);
      co_await ctx.wait_u32_ge(ctx.my_global(kBReady), round);
      parity = (parity + 2) % 3;
      cnt.comm += ctx.now() - t0;
    } else {
      co_await compute_step(ctx, cfg, parity, cnt, abuf, bbuf);
    }
  }
}

// ---- host-side block scatter/gather ----------------------------------------

/// Copy a (rows x cols) sub-block of `mat` (leading dimension ld, origin
/// (row0,col0)) into the two half-slot addresses of core `ctx`.
void scatter_block(host::System& sys, device::CoreCtx& ctx, BlockAddrs dst,
                   std::span<const float> mat, unsigned ld, unsigned row0, unsigned col0,
                   unsigned rows, unsigned cols) {
  std::vector<float> buf(static_cast<std::size_t>(rows) * cols);
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      buf[r * cols + c] = mat[static_cast<std::size_t>(row0 + r) * ld + col0 + c];
    }
  }
  const unsigned half = rows / 2;
  sys.write_array<float>(ctx.my_global(dst.half0),
                         std::span<const float>(buf.data(), std::size_t{half} * cols));
  sys.write_array<float>(ctx.my_global(dst.half1),
                         std::span<const float>(buf.data() + std::size_t{half} * cols,
                                                std::size_t{rows - half} * cols));
}

void gather_block(host::System& sys, device::CoreCtx& ctx, Addr src,
                  std::span<float> mat, unsigned ld, unsigned row0, unsigned col0,
                  unsigned rows, unsigned cols) {
  std::vector<float> buf(static_cast<std::size_t>(rows) * cols);
  sys.read_array<float>(ctx.my_global(src), std::span<float>(buf));
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      mat[static_cast<std::size_t>(row0 + r) * ld + col0 + c] = buf[r * cols + c];
    }
  }
}

}  // namespace

// ---- level 1: single core ---------------------------------------------------

MatmulSingleResult run_matmul_single(host::System& sys, unsigned m, unsigned n, unsigned k,
                                     Codegen cg, std::uint64_t seed, bool verify) {
  if (m * n * 4 > 0x1800 || n * k * 4 > 0x1800 || m * k * 4 > 0x1000) {
    throw std::invalid_argument("single-core operands exceed the scratchpad layout");
  }
  std::vector<float> a(static_cast<std::size_t>(m) * n);
  std::vector<float> b(static_cast<std::size_t>(n) * k);
  std::vector<float> c(static_cast<std::size_t>(m) * k, 0.0f);
  util::fill_random(a, seed);
  util::fill_random(b, seed + 1);

  auto wg = sys.open(0, 0, 1, 1);
  auto& ctx = wg.ctx(0, 0);
  sys.write_array<float>(ctx.my_global(MatmulLayout::kARegion), std::span<const float>(a));
  sys.write_array<float>(ctx.my_global(MatmulLayout::kBRegion), std::span<const float>(b));
  sys.write_array<float>(ctx.my_global(MatmulLayout::kC), std::span<const float>(c));

  CannonCfg cfg;
  cfg.g = 1;
  cfg.m = m;
  cfg.n = n;
  cfg.k = k;
  cfg.cg = cg;
  cfg.scheme = CommScheme::None;
  CannonCounters cnt;
  wg.load([&](device::CoreCtx& kctx) -> sim::Op<void> {
    return [](device::CoreCtx& x, CannonCfg cc, CannonCounters& cn) -> sim::Op<void> {
      unsigned parity = 0;
      std::uint32_t round = 0;
      co_await cannon_phase(x, cc, parity, round, cn);
    }(kctx, cfg, cnt);
  });
  MatmulSingleResult r;
  r.cycles = wg.run();
  r.gflops = sys.gflops(MatmulSchedule::block_flops(m, n, k), r.cycles);
  if (verify) {
    sys.read_array<float>(ctx.my_global(MatmulLayout::kC), std::span<float>(c));
    std::vector<float> ref(c.size());
    util::matmul_reference(a, b, ref, m, n, k);
    r.max_error = util::max_abs_diff(c, ref);
    r.verified = r.max_error == 0.0f;
  } else {
    r.verified = true;
  }
  return r;
}

// ---- level 2: on-chip Cannon -------------------------------------------------

namespace {

MatmulOnChipResult run_onchip_impl(host::System& sys, unsigned g, unsigned m, unsigned n,
                                   unsigned k, Codegen cg, std::uint64_t seed,
                                   bool verify) {
  const CommScheme scheme = pick_scheme(g, m, n, k);
  if (m * k * 4 > 0x1000) {
    throw std::invalid_argument("per-core C block exceeds 4 KB");
  }
  const unsigned gm = g * m;
  const unsigned gn = g * n;
  const unsigned gk = g * k;
  std::vector<float> a(static_cast<std::size_t>(gm) * gn);
  std::vector<float> b(static_cast<std::size_t>(gn) * gk);
  std::vector<float> c(static_cast<std::size_t>(gm) * gk, 0.0f);
  util::fill_random(a, seed);
  util::fill_random(b, seed + 1);

  auto wg = sys.open(0, 0, g, g);
  // Pre-skewed initial distribution: core (i,j) holds A(i, (i+j)%g) and
  // B((i+j)%g, j) in block units.
  for (unsigned i = 0; i < g; ++i) {
    for (unsigned j = 0; j < g; ++j) {
      auto& ctx = wg.ctx(i, j);
      const unsigned s = (i + j) % g;
      scatter_block(sys, ctx, operand_addrs(MatmulLayout::kARegion, scheme, 0, m * n * 4),
                    a, gn, i * m, s * n, m, n);
      scatter_block(sys, ctx, operand_addrs(MatmulLayout::kBRegion, scheme, 0, n * k * 4),
                    b, gk, s * n, j * k, n, k);
      std::vector<float> zeros(static_cast<std::size_t>(m) * k, 0.0f);
      sys.write_array<float>(ctx.my_global(MatmulLayout::kC), std::span<const float>(zeros));
      for (Addr f : {kAFree, kAReady, kBFree, kBReady}) {
        sys.machine().mem().write_value<std::uint32_t>(ctx.my_global(f), 0, ctx.coord());
      }
    }
  }

  CannonCfg cfg;
  cfg.g = g;
  cfg.m = m;
  cfg.n = n;
  cfg.k = k;
  cfg.cg = cg;
  cfg.scheme = scheme;
  std::vector<CannonCounters> counters(wg.size());
  wg.load([&](device::CoreCtx& kctx) -> sim::Op<void> {
    return [](device::CoreCtx& x, CannonCfg cc, CannonCounters& cn) -> sim::Op<void> {
      unsigned parity = 0;
      std::uint32_t round = 0;
      co_await cannon_phase(x, cc, parity, round, cn);
    }(kctx, cfg, counters[kctx.group_index()]);
  });

  MatmulOnChipResult r;
  r.cycles = wg.run();
  r.gflops = sys.gflops(MatmulSchedule::block_flops(gm, gn, gk), r.cycles);
  double frac = 0.0;
  for (const auto& cn : counters) {
    const double tot = static_cast<double>(cn.compute + cn.comm);
    frac += tot > 0 ? static_cast<double>(cn.compute) / tot : 1.0;
  }
  r.compute_fraction = frac / static_cast<double>(counters.size());

  if (verify) {
    for (unsigned i = 0; i < g; ++i) {
      for (unsigned j = 0; j < g; ++j) {
        gather_block(sys, wg.ctx(i, j), MatmulLayout::kC, c, gk, i * m, j * k, m, k);
      }
    }
    std::vector<float> ref(c.size());
    util::matmul_reference(a, b, ref, gm, gn, gk);
    r.max_error = util::max_abs_diff(c, ref);
    r.verified = r.max_error <= 5e-3f;
  } else {
    r.verified = true;
  }
  return r;
}

}  // namespace

MatmulOnChipResult run_matmul_onchip(host::System& sys, unsigned group, unsigned block,
                                     Codegen cg, std::uint64_t seed, bool verify) {
  return run_onchip_impl(sys, group, block, block, block, cg, seed, verify);
}

MatmulOnChipResult run_matmul_onchip_rect(host::System& sys, unsigned group, unsigned m,
                                          unsigned n, unsigned k, Codegen cg,
                                          std::uint64_t seed, bool verify) {
  return run_onchip_impl(sys, group, m, n, k, cg, seed, verify);
}

// ---- level 3: off-chip paged -------------------------------------------------

namespace {

struct OffChipShared {
  Addr a = 0, b = 0, c = 0;
  unsigned n_global = 0;
};

/// Kernel: page pre-skewed sub-blocks of each superblock pair, run the
/// on-chip Cannon phase per page, accumulate C, write the finished C
/// superblock back to shared DRAM.
sim::Op<void> offchip_kernel(device::CoreCtx& ctx, CannonCfg cfg, OffChipShared shm,
                             CannonCounters& cnt) {
  const unsigned g = cfg.g;
  const unsigned b = cfg.m;  // square blocks
  const unsigned super = g * b;
  const unsigned s_count = shm.n_global / super;
  const unsigned i = ctx.group_row();
  const unsigned j = ctx.group_col();
  const unsigned skew = (i + j) % g;
  const unsigned row_bytes = b * 4;
  const std::int32_t ld_bytes = static_cast<std::int32_t>(shm.n_global * 4);

  unsigned parity = 0;
  std::uint32_t round = 0;
  bool c_outstanding = false;  // previous C block still draining on channel 0
  auto cblock = ctx.local_array<float>(MatmulLayout::kC, static_cast<std::size_t>(b) * b);

  for (unsigned bi = 0; bi < s_count; ++bi) {
    for (unsigned bj = 0; bj < s_count; ++bj) {
      for (unsigned t = 0; t < s_count; ++t) {
        // Page in this core's pre-skewed sub-blocks of A(bi,t) and B(t,bj).
        // All four 2D descriptors chain on channel 1 so the previous C
        // block's write-back (channel 0, off-chip *write* network) overlaps
        // with this page-in (off-chip *read* network).
        const Cycles p0 = ctx.now();
        // The whole page-in -- DMA waits *and* the levelling barrier -- is one
        // Comm phase, matching the paper's measurement semantics (cnt.paging
        // below likewise includes the barrier).
        ctx.phase_begin(trace::Phase::Comm, "page-in");
        const BlockAddrs da =
            operand_addrs(MatmulLayout::kARegion, cfg.scheme, parity, cfg.a_bytes());
        const BlockAddrs db =
            operand_addrs(MatmulLayout::kBRegion, cfg.scheme, parity, cfg.b_bytes());
        const std::uint32_t a_row0 = (bi * g + i) * b;
        const std::uint32_t a_col0 = (t * g + skew) * b;
        const std::uint32_t b_row0 = (t * g + skew) * b;
        const std::uint32_t b_col0 = (bj * g + j) * b;
        const auto src_of = [&](Addr base, std::uint32_t r0, std::uint32_t c0) {
          return base + (static_cast<Addr>(r0) * shm.n_global + c0) * 4;
        };
        const auto page_desc = [&](Addr dst, Addr src, unsigned rows) {
          return dma::DmaDescriptor::strided(dst, src, rows, row_bytes, ld_bytes,
                                             static_cast<std::int32_t>(row_bytes),
                                             dma::ElemSize::DWord);
        };
        co_await ctx.dma_set_desc();
        auto a0 = page_desc(ctx.my_global(da.half0), src_of(shm.a, a_row0, a_col0), b / 2);
        co_await ctx.dma_set_desc();
        auto a1 = page_desc(ctx.my_global(da.half1), src_of(shm.a, a_row0 + b / 2, a_col0),
                            b / 2);
        co_await ctx.dma_set_desc();
        auto b0 = page_desc(ctx.my_global(db.half0), src_of(shm.b, b_row0, b_col0),
                            cfg.n / 2);
        co_await ctx.dma_set_desc();
        auto b1 = page_desc(ctx.my_global(db.half1),
                            src_of(shm.b, b_row0 + cfg.n / 2, b_col0), cfg.n / 2);
        a0.chain = &a1;
        a1.chain = &b0;
        b0.chain = &b1;
        co_await ctx.dma_start(1, a0);
        co_await ctx.dma_wait(1);

        if (t == 0) {
          // C write-back has fully hidden behind the first page-in by now;
          // reclaim the accumulator and clear it (dword stores).
          if (c_outstanding) {
            co_await ctx.dma_wait(0);
            c_outstanding = false;
          }
          co_await ctx.compute(b * b / 2);
          std::fill(cblock.begin(), cblock.end(), 0.0f);
        }
        co_await ctx.barrier();
        ctx.phase_end();
        cnt.paging += ctx.now() - p0;

        co_await cannon_phase(ctx, cfg, parity, round, cnt);
        co_await ctx.barrier();
      }

      // Kick the finished C block back to shared DRAM without blocking.
      const Cycles w0 = ctx.now();
      ctx.phase_begin(trace::Phase::Comm, "c-writeback");
      const std::uint32_t c_row0 = (bi * g + i) * b;
      const std::uint32_t c_col0 = (bj * g + j) * b;
      co_await ctx.dma_set_desc();
      auto cd = dma::DmaDescriptor::strided(
          shm.c + (static_cast<Addr>(c_row0) * shm.n_global + c_col0) * 4,
          ctx.my_global(MatmulLayout::kC), b, row_bytes,
          static_cast<std::int32_t>(row_bytes), ld_bytes, dma::ElemSize::DWord);
      co_await ctx.dma_start(0, cd);
      c_outstanding = true;
      ctx.phase_end();
      cnt.paging += ctx.now() - w0;
    }
  }
  if (c_outstanding) co_await ctx.dma_wait(0);
}

}  // namespace

MatmulOffChipResult run_matmul_offchip(host::System& sys, unsigned n_global, unsigned group,
                                       unsigned block, Codegen cg, std::uint64_t seed,
                                       bool verify) {
  const unsigned super = group * block;
  if (n_global % super != 0) {
    throw std::invalid_argument("global size must be a multiple of group*block");
  }
  const CommScheme scheme = pick_scheme(group, block, block, block);

  const std::size_t elems = static_cast<std::size_t>(n_global) * n_global;
  std::vector<float> a(elems);
  std::vector<float> b(elems);
  util::fill_random(a, seed);
  util::fill_random(b, seed + 1);

  sys.shm_reset();
  OffChipShared shm;
  shm.a = sys.shm_alloc(elems * 4);
  shm.b = sys.shm_alloc(elems * 4);
  shm.c = sys.shm_alloc(elems * 4);
  shm.n_global = n_global;
  sys.write_array<float>(shm.a, std::span<const float>(a));
  sys.write_array<float>(shm.b, std::span<const float>(b));

  auto wg = sys.open(0, 0, group, group);
  for (unsigned i = 0; i < group; ++i) {
    for (unsigned j = 0; j < group; ++j) {
      auto& ctx = wg.ctx(i, j);
      for (Addr f : {kAFree, kAReady, kBFree, kBReady}) {
        sys.machine().mem().write_value<std::uint32_t>(ctx.my_global(f), 0, ctx.coord());
      }
    }
  }

  CannonCfg cfg;
  cfg.g = group;
  cfg.m = cfg.n = cfg.k = block;
  cfg.cg = cg;
  cfg.scheme = scheme;
  std::vector<CannonCounters> counters(wg.size());
  wg.load([&](device::CoreCtx& kctx) -> sim::Op<void> {
    return offchip_kernel(kctx, cfg, shm, counters[kctx.group_index()]);
  });

  MatmulOffChipResult r;
  r.cycles = wg.run();
  r.gflops = sys.gflops(2.0 * n_global * n_global * static_cast<double>(n_global), r.cycles);
  double comp = 0.0;
  double page = 0.0;
  for (const auto& cn : counters) {
    const double tot = static_cast<double>(cn.compute + cn.comm + cn.paging);
    if (tot > 0) {
      comp += static_cast<double>(cn.compute) / tot;
      page += static_cast<double>(cn.paging) / tot;
    }
  }
  r.compute_fraction = comp / static_cast<double>(counters.size());
  r.transfer_fraction = page / static_cast<double>(counters.size());

  if (verify) {
    std::vector<float> c(elems);
    sys.read_array<float>(shm.c, std::span<float>(c));
    std::vector<float> ref(elems);
    util::matmul_reference(a, b, ref, n_global, n_global, n_global);
    r.max_error = util::max_abs_diff(c, ref);
    r.verified = r.max_error <= 5e-3f * static_cast<float>(n_global) / 256.0f;
  } else {
    r.verified = true;
  }
  return r;
}

}  // namespace epi::core
