// Integration tests for the eSDK workalike: workgroups, kernels, device
// memory operations, timers, barriers and mutexes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "host/system.hpp"

namespace {

using namespace epi;
using arch::Addr;
using arch::CoreCoord;
using arch::Dir;
using sim::Cycles;

TEST(Workgroup, OpenValidatesPlacement) {
  host::System sys;
  EXPECT_NO_THROW((void)sys.open(0, 0, 8, 8));
  EXPECT_NO_THROW((void)sys.open(4, 4, 4, 4));
  EXPECT_THROW((void)sys.open(0, 0, 9, 1), std::out_of_range);
  EXPECT_THROW((void)sys.open(7, 7, 2, 1), std::out_of_range);
  EXPECT_THROW((void)sys.open(0, 0, 0, 1), std::out_of_range);
}

// The reservation table validates every rectangle, so a Workgroup built
// directly (as the serving runtime builds one) is checked like one opened.
TEST(Workgroup, ConstructionRejectsAnEmptyOrWrappingRectangle) {
  host::System sys;
  using Info = device::GroupInfo;
  EXPECT_THROW(host::Workgroup(sys.machine(), Info{{0, 0}, 0, 4}), std::out_of_range);
  EXPECT_THROW(host::Workgroup(sys.machine(), Info{{2, 3}, 4, 0}), std::out_of_range);
  EXPECT_THROW(host::Workgroup(sys.machine(), Info{{1, 0}, ~0u, 1}), std::out_of_range);
  EXPECT_THROW(host::Workgroup(sys.machine(), Info{{0, 9}, 1, 1}), std::out_of_range);
  EXPECT_EQ(sys.machine().reservations().reserved_count(), 0u);
  host::Workgroup wg(sys.machine(), Info{{7, 7}, 1, 1});
  EXPECT_EQ(wg.size(), 1u);
}

TEST(Workgroup, StartWithoutLoadThrows) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  EXPECT_THROW(wg.start(), std::logic_error);
}

TEST(Workgroup, EveryCoreRunsTheKernel) {
  host::System sys;
  auto wg = sys.open(1, 2, 3, 4);
  std::vector<int> ran(wg.size(), 0);
  wg.load([&ran](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::vector<int>& r) -> sim::Op<void> {
      co_await c.compute(10);
      r[c.group_index()] = 1;
    }(ctx, ran);
  });
  wg.run();
  for (int x : ran) EXPECT_EQ(x, 1);
}

TEST(Workgroup, GroupGeometryExposedToKernels) {
  host::System sys;
  auto wg = sys.open(2, 3, 2, 2);
  auto& ctx = wg.ctx(1, 1);
  EXPECT_EQ(ctx.coord(), (CoreCoord{3, 4}));
  EXPECT_EQ(ctx.group_row(), 1u);
  EXPECT_EQ(ctx.group_col(), 1u);
  EXPECT_EQ(ctx.group_index(), 3u);
  CoreCoord n;
  ASSERT_TRUE(ctx.neighbour(Dir::North, n));
  EXPECT_EQ(n, (CoreCoord{2, 4}));
  EXPECT_FALSE(ctx.neighbour(Dir::South, n));
  EXPECT_FALSE(ctx.neighbour(Dir::East, n));
}

TEST(Workgroup, NeighbourWrapIsTorus) {
  host::System sys;
  auto wg = sys.open(0, 0, 4, 4);
  auto& corner = wg.ctx(0, 0);
  EXPECT_EQ(corner.neighbour_wrap(Dir::West), (CoreCoord{0, 3}));
  EXPECT_EQ(corner.neighbour_wrap(Dir::North), (CoreCoord{3, 0}));
  EXPECT_EQ(corner.neighbour_wrap(Dir::East), (CoreCoord{0, 1}));
  auto& mid = wg.ctx(2, 2);
  EXPECT_EQ(mid.neighbour_wrap(Dir::South), (CoreCoord{3, 2}));
}

TEST(Workgroup, KernelExceptionPropagatesToHost) {
  host::System sys;
  auto wg = sys.open(0, 0, 2, 1);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      co_await c.compute(5);
      if (c.group_index() == 1) throw std::runtime_error("boom");
    }(ctx);
  });
  EXPECT_THROW(wg.run(), std::runtime_error);
}

TEST(Workgroup, StatusWordWrittenOnCompletion) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  auto& ctx = wg.ctx(0, 0);
  wg.load([](device::CoreCtx& c) -> sim::Op<void> {
    return [](device::CoreCtx& x) -> sim::Op<void> { co_await x.compute(3); }(c);
  });
  wg.start();
  EXPECT_EQ(sys.machine().mem().read_value<std::uint32_t>(
                ctx.my_global(device::CoreCtx::kStatusOffset), ctx.coord()),
            0u);
  wg.wait();
  EXPECT_EQ(sys.machine().mem().read_value<std::uint32_t>(
                ctx.my_global(device::CoreCtx::kStatusOffset), ctx.coord()),
            1u);
}

TEST(DeviceMem, RemoteWriteVisibleToTarget) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 2);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      if (c.group_index() == 0) {
        CoreCoord east;
        EXPECT_TRUE(c.neighbour(Dir::East, east));
        co_await c.write_u32(c.global(east, 0x4000), 0xCAFE);
        co_await c.write_f32(c.global(east, 0x4004), 3.5f);
      } else {
        co_await c.wait_u32_eq(c.my_global(0x4000), 0xCAFE);
      }
    }(ctx);
  });
  wg.run();
  auto& ctx1 = wg.ctx(0, 1);
  EXPECT_EQ(sys.machine().mem().read_value<float>(ctx1.my_global(0x4004), ctx1.coord()),
            3.5f);
}

TEST(DeviceMem, RemoteLoadReturnsValueAndCostsMore) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 2);
  auto& target = wg.ctx(0, 1);
  sys.machine().mem().write_value<std::uint32_t>(target.my_global(0x5000), 77,
                                                 target.coord());
  Cycles local_t = 0, remote_t = 0;
  std::uint32_t got = 0;
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, Cycles& lt, Cycles& rt, std::uint32_t& g) -> sim::Op<void> {
      if (c.group_index() != 0) co_return;
      Cycles t0 = c.now();
      (void)co_await c.read_u32(c.my_global(0x5000));
      lt = c.now() - t0;
      t0 = c.now();
      g = co_await c.read_u32(c.global({0, 1}, 0x5000));
      rt = c.now() - t0;
    }(ctx, local_t, remote_t, got);
  });
  wg.run();
  EXPECT_EQ(got, 77u);
  EXPECT_GT(remote_t, local_t);
}

TEST(DeviceMem, DirectWriteBlockCostScalesWithSize) {
  host::System sys;
  auto measure = [&](std::uint32_t bytes) {
    auto wg = sys.open(0, 0, 1, 2);
    wg.load([bytes](device::CoreCtx& ctx) -> sim::Op<void> {
      return [](device::CoreCtx& c, std::uint32_t b) -> sim::Op<void> {
        if (c.group_index() != 0) co_return;
        co_await c.direct_write_block(c.global({0, 1}, 0x4000), 0x4000, b);
      }(ctx, bytes);
    });
    return wg.run();
  };
  const Cycles t1 = measure(400);
  const Cycles t2 = measure(800);
  EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t1), 2.0, 0.1);
}

TEST(CTimer, MeasuresElapsedCycles) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  std::uint32_t measured = 0;
  wg.load([&measured](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::uint32_t& out) -> sim::Op<void> {
      // The paper's Listing 1 idiom: set to MAX, start, compute, read.
      auto& t = c.ctimer(0);
      t.set(machine::CTimer::kMax);
      t.start();
      const std::uint32_t before = t.get();
      co_await c.compute(1234);
      const std::uint32_t after = t.get();
      t.stop();
      out = before - after;  // down-counter
    }(ctx, measured);
  });
  wg.run();
  EXPECT_EQ(measured, 1234u);
}

TEST(CTimer, StopFreezesValue) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  std::uint32_t a = 0, b = 0;
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::uint32_t& x, std::uint32_t& y) -> sim::Op<void> {
      auto& t = c.ctimer(1);
      t.set(machine::CTimer::kMax);
      t.start();
      co_await c.compute(100);
      t.stop();
      x = t.get();
      co_await c.compute(100);
      y = t.get();
    }(ctx, a, b);
  });
  wg.run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, machine::CTimer::kMax - 100);
}

TEST(CTimer, TwoTimersIndependent) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  std::uint32_t a = 0, b = 0;
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::uint32_t& x, std::uint32_t& y) -> sim::Op<void> {
      c.ctimer(0).set(machine::CTimer::kMax);
      c.ctimer(0).start();
      co_await c.compute(50);
      c.ctimer(1).set(machine::CTimer::kMax);
      c.ctimer(1).start();
      co_await c.compute(50);
      x = machine::CTimer::kMax - c.ctimer(0).get();
      y = machine::CTimer::kMax - c.ctimer(1).get();
    }(ctx, a, b);
  });
  wg.run();
  EXPECT_EQ(a, 100u);
  EXPECT_EQ(b, 50u);
}

class BarrierTest : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(BarrierTest, NoCoreLeavesEarly) {
  const auto [rows, cols] = GetParam();
  host::System sys;
  auto wg = sys.open(0, 0, rows, cols);
  const unsigned n = rows * cols;
  // After barrier k, every core must observe all cores having reached
  // phase k, despite staggered arrivals.
  std::vector<unsigned> phase(n, 0);
  bool violation = false;
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::vector<unsigned>& ph, bool& bad,
              unsigned nn) -> sim::Op<void> {
      for (unsigned k = 1; k <= 3; ++k) {
        co_await c.compute(1 + (c.group_index() * 37 + k * 101) % 500);
        ph[c.group_index()] = k;
        co_await c.barrier();
        for (unsigned i = 0; i < nn; ++i) {
          if (ph[i] < k) bad = true;
        }
      }
    }(ctx, phase, violation, n);
  });
  wg.run();
  EXPECT_FALSE(violation);
}

INSTANTIATE_TEST_SUITE_P(Groups, BarrierTest,
                         ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 2u),
                                           std::make_pair(2u, 2u), std::make_pair(2u, 4u),
                                           std::make_pair(4u, 4u), std::make_pair(8u, 8u)));

class MutexTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MutexTest, CriticalSectionIsExclusive) {
  const unsigned g = GetParam();
  host::System sys;
  auto wg = sys.open(0, 0, g, g);
  // The mutex word lives in core (0,0)'s scratchpad, as the SDK's workgroup
  // mutex does.
  auto& root = wg.ctx(0, 0);
  const Addr mtx = root.my_global(0x3E00);
  sys.machine().mem().write_value<std::uint32_t>(mtx, 0, root.coord());

  int in_section = 0;
  int max_in_section = 0;
  long total = 0;
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, Addr m, int& in, int& mx, long& tot) -> sim::Op<void> {
      for (int k = 0; k < 5; ++k) {
        co_await c.mutex_lock(m);
        ++in;
        mx = std::max(mx, in);
        co_await c.compute(20 + c.group_index() % 7);
        ++tot;
        --in;
        co_await c.mutex_unlock(m);
      }
    }(ctx, mtx, in_section, max_in_section, total);
  });
  wg.run();
  EXPECT_EQ(max_in_section, 1);
  EXPECT_EQ(total, 5L * g * g);
  EXPECT_EQ(sys.machine().mem().read_value<std::uint32_t>(mtx, root.coord()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Groups, MutexTest, ::testing::Values(1u, 2u, 3u, 4u));

TEST(HostIO, SharedMemoryAllocatorAlignsAndBounds) {
  host::System sys;
  const Addr a = sys.shm_alloc(100, 64);
  const Addr b = sys.shm_alloc(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_THROW((void)sys.shm_alloc(33 * 1024 * 1024), std::bad_alloc);
  sys.shm_reset();
  EXPECT_EQ(sys.shm_alloc(16), a);
}

TEST(HostIO, SharedMemoryReusesFreedRangesOnlyOnceTheTailIsFull) {
  host::System sys;
  const std::size_t window = sys.machine().mem().map().external_bytes;
  const Addr a = sys.shm_alloc(4096);
  const Addr b = sys.shm_alloc(4096);
  const Addr c = sys.shm_alloc(4096);
  sys.shm_free(a, 4096);
  // The tail still has room: freeing changes no later address.
  const Addr d = sys.shm_alloc(64);
  EXPECT_EQ(d, c + 4096);
  // Fill the window to its last byte; the next request reuses the hole at a.
  (void)sys.shm_alloc(window - (d + 64 - a));
  EXPECT_EQ(sys.shm_alloc(1024, 64), a);
  EXPECT_EQ(sys.shm_alloc(3072), a + 1024);
  EXPECT_THROW((void)sys.shm_alloc(8), std::bad_alloc);
  // Adjacent frees merge into one range that fits a request neither did.
  sys.shm_free(b, 4096);
  sys.shm_free(c, 4096);
  EXPECT_EQ(sys.shm_alloc(8192), b);
  // Double frees and ranges outside the allocated window are refused.
  sys.shm_free(d, 64);
  EXPECT_THROW(sys.shm_free(d, 64), std::invalid_argument);
  EXPECT_THROW(sys.shm_free(a - 8, 8), std::invalid_argument);
  sys.shm_reset();
  EXPECT_EQ(sys.shm_alloc(16), a);
}

TEST(HostIO, SharedMemoryRefusesOversizedRequestsWithoutMovingTheBreak) {
  host::System sys;
  const std::size_t window = sys.machine().mem().map().external_bytes;
  const Addr a = sys.shm_alloc(64);
  EXPECT_THROW((void)sys.shm_alloc(SIZE_MAX - 7), std::bad_alloc);
  EXPECT_THROW((void)sys.shm_alloc(SIZE_MAX, 64), std::bad_alloc);
  EXPECT_EQ(sys.shm_alloc(64), a + 64);
  // With the tail full, an oversized request must not fit a hole either.
  const Addr hole = sys.shm_alloc(4096);
  (void)sys.shm_alloc(window - (hole + 4096 - a));
  sys.shm_free(hole + 8, 1024);
  EXPECT_THROW((void)sys.shm_alloc(SIZE_MAX - 7, 64), std::bad_alloc);
  EXPECT_EQ(sys.shm_alloc(1024), hole + 8);
}

TEST(HostIO, SharedMemoryRejectsZeroAlignment) {
  host::System sys;
  EXPECT_THROW((void)sys.shm_alloc(16, 0), std::invalid_argument);
  EXPECT_EQ(sys.shm_alloc(16), sys.machine().mem().map().external_base);
}

TEST(HostIO, SharedMemoryFreeRejectsWrappingRanges) {
  host::System sys;
  const Addr a = sys.shm_alloc(64);
  const Addr b = sys.shm_alloc(64);
  EXPECT_THROW(sys.shm_free(a + 64, SIZE_MAX), std::invalid_argument);
  EXPECT_THROW(sys.shm_free(b, SIZE_MAX - 63), std::invalid_argument);
  // Nothing was recorded free: b is still live and frees exactly once.
  sys.shm_free(b, 64);
  EXPECT_THROW(sys.shm_free(b, 64), std::invalid_argument);
}

TEST(HostIO, SharedMemoryZeroByteFreeIsANoOp) {
  host::System sys;
  const Addr z = sys.shm_alloc(256);
  sys.shm_free(z, 0);
  sys.shm_free(z, 256);
  EXPECT_THROW(sys.shm_free(z, 256), std::invalid_argument);
  EXPECT_EQ(sys.shm_alloc(8), z + 256);
}

TEST(HostIO, HostReadsKernelResults) {
  host::System sys;
  auto wg = sys.open(0, 0, 2, 2);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      auto out = c.local_array<std::uint32_t>(0x6000, 1);
      out[0] = 1000 + c.group_index();
      co_await c.compute(1);
    }(ctx);
  });
  wg.run();
  for (unsigned r = 0; r < 2; ++r) {
    for (unsigned c = 0; c < 2; ++c) {
      std::uint32_t v = 0;
      sys.read(wg.ctx(r, c).my_global(0x6000),
               std::as_writable_bytes(std::span<std::uint32_t, 1>(&v, 1)));
      EXPECT_EQ(v, 1000u + r * 2 + c);
    }
  }
}

TEST(Workgroup, ReusableAcrossLaunches) {
  // The host can reload and restart a group (e_load/e_start repeat).
  host::System sys;
  auto wg = sys.open(0, 0, 2, 2);
  int total = 0;
  wg.load([&total](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, int& t) -> sim::Op<void> {
      co_await c.compute(10);
      ++t;
    }(ctx, total);
  });
  wg.run();
  wg.run();
  EXPECT_EQ(total, 8);
}

TEST(Workgroup, WaitBeforeStartThrowsWithoutRunningTheEngine) {
  host::System sys;
  auto idle = sys.open(0, 0, 1, 1);
  auto busy = sys.open(1, 0, 1, 1);
  const auto kernel = [](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> { co_await c.compute(100); }(ctx);
  };
  idle.load(kernel);
  busy.load(kernel);
  busy.start();
  EXPECT_THROW(idle.wait(), std::logic_error);
  EXPECT_EQ(sys.engine().now(), 0u);  // the other group's kernel did not advance
  busy.wait();
}

TEST(Workgroup, StartWhileKernelsRunThrows) {
  host::System sys;
  auto wg = sys.open(0, 0, 2, 2);
  int total = 0;
  wg.load([&total](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, int& t) -> sim::Op<void> {
      co_await c.compute(10);
      ++t;
    }(ctx, total);
  });
  wg.start();
  EXPECT_THROW(wg.start(), std::logic_error);
  EXPECT_FALSE(wg.complete());
  wg.wait();
  EXPECT_EQ(total, 4);  // the first start's kernels ran once each
  EXPECT_NO_THROW(wg.run());
  EXPECT_EQ(total, 8);
}

TEST(Workgroup, RethrowErrorsRaisesTheLowestGroupIndexsError) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 3);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      // Core 2 fails first in simulated time, core 1 later; core 0 succeeds.
      if (c.group_index() == 0) co_return;
      co_await c.compute(c.group_index() == 1 ? 50 : 5);
      if (c.group_index() == 1) throw std::runtime_error("core 1");
      throw std::logic_error("core 2");
    }(ctx);
  });
  wg.start();
  sys.engine().run();
  ASSERT_TRUE(wg.complete());
  EXPECT_TRUE(wg.any_failed());
  EXPECT_THROW(wg.rethrow_errors(), std::runtime_error);
}

TEST(Workgroup, DisjointGroupsRunConcurrently) {
  // Two workgroups on disjoint mesh regions execute in the same simulated
  // window: total time is the max, not the sum.
  host::System sys;
  auto a = sys.open(0, 0, 2, 2);
  auto b = sys.open(4, 4, 2, 2);
  auto kernel = [](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      co_await c.compute(1000);
      co_await c.barrier();
    }(ctx);
  };
  a.load(kernel);
  b.load(kernel);
  const Cycles t0 = sys.engine().now();
  a.start();
  b.start();
  a.wait();
  b.wait();
  const Cycles both = sys.engine().now() - t0;
  EXPECT_LT(both, 2200u);  // ~1000 compute + barrier, overlapped
}

TEST(DeviceMem, ExternalStoreGoesThroughELink) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      co_await c.external_write_block(arch::AddressMap::kExternalBase, 0x4000, 2048);
    }(ctx);
  });
  const Cycles t = wg.run();
  // 2 KB at 150 MB/s = 8192 cycles (+ glue-logic latency).
  EXPECT_GE(t, 8192u);
  EXPECT_LE(t, 9000u);
}

}  // namespace
