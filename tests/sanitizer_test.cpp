// The runtime half of epi-lint: shadow-memory sanitizer over the
// MemorySystem. The defect fixtures reproduce the paper's Listing-1/2
// hazards -- consuming a neighbour's data without waiting on its flag --
// and the clean fixtures show that the idiomatic synchronisation patterns
// (flag spin, barrier, mutex, host preload) produce no findings.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "lint/sanitizer.hpp"

namespace {

using namespace epi;
using arch::Addr;
using arch::CoreCoord;

constexpr Addr kData = 0x4000;  // scratch offset well clear of the runtime area
constexpr Addr kFlag = 0x5000;

std::string dump(const lint::MemSanitizer& san) {
  std::string s;
  for (const auto& f : san.findings()) s += f.format("<run>") + "\n";
  return s;
}

TEST(Sanitizer, FlagsUninitializedRead) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 1);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      (void)co_await c.read_u32(c.my_global(kData));  // nothing ever wrote it
    }(ctx);
  });
  wg.run();
  EXPECT_EQ(san.count("uninit-read"), 1u) << dump(san);
  EXPECT_EQ(san.count("race"), 0u) << dump(san);
}

TEST(Sanitizer, HostPreloadIsInitialization) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 1);
  const std::uint32_t seed = 0xC0FFEEu;
  sys.write(sys.machine().mem().map().global({0, 0}, kData),
            std::as_bytes(std::span<const std::uint32_t, 1>(&seed, 1)));
  std::uint32_t got = 0;
  wg.load([&got](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::uint32_t& out) -> sim::Op<void> {
      out = co_await c.read_u32(c.my_global(kData));
    }(ctx, got);
  });
  wg.run();
  EXPECT_EQ(got, seed);
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

/// Listing-1/2 shape: core (0,0) pushes data into core (0,1)'s scratchpad,
/// then raises a flag there. The consumer either honours the flag (clean)
/// or reads straight away (race). Returns the findings and the value read.
std::vector<lint::Finding> producer_consumer(bool consumer_waits,
                                             std::uint32_t& value_out) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 2);
  wg.load([consumer_waits, &value_out](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, bool waits, std::uint32_t& out) -> sim::Op<void> {
      if (c.group_index() == 0) {  // producer
        const CoreCoord peer{0, 1};
        co_await c.write_u32(c.global(peer, kData), 42);
        co_await c.write_u32(c.global(peer, kFlag), 1);
      } else {  // consumer
        // Make sure the producer's store has landed either way, so the
        // defective variant is a *race*, not an uninitialised read.
        co_await c.compute(10000);
        if (waits) co_await c.wait_u32_eq(c.my_global(kFlag), 1);
        out = co_await c.read_u32(c.my_global(kData));
      }
    }(ctx, consumer_waits, value_out);
  });
  wg.run();
  return san.findings();
}

std::size_t count_pass(const std::vector<lint::Finding>& fs, const char* pass) {
  std::size_t n = 0;
  for (const auto& f : fs) {
    if (f.pass == pass) ++n;
  }
  return n;
}

TEST(Sanitizer, UnsynchronizedRemoteReadIsARace) {
  std::uint32_t v = 0;
  const auto fs = producer_consumer(/*consumer_waits=*/false, v);
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(count_pass(fs, "race"), 1u);
  EXPECT_EQ(count_pass(fs, "uninit-read"), 0u);
}

TEST(Sanitizer, FlagWaitOrdersTheRead) {
  std::uint32_t v = 0;
  const auto fs = producer_consumer(/*consumer_waits=*/true, v);
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(fs.empty());
}

TEST(Sanitizer, BarrierSynchronisesTheGroup) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 2, 2);
  std::vector<std::uint32_t> got(4, 0);
  wg.load([&got](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::vector<std::uint32_t>& out) -> sim::Op<void> {
      // All-to-one: everyone deposits into the root, root reads after the
      // barrier.
      const CoreCoord root{0, 0};
      co_await c.write_u32(c.global(root, kData + 4 * c.group_index()),
                           100 + c.group_index());
      co_await c.barrier();
      if (c.group_index() == 0) {
        for (unsigned i = 0; i < 4; ++i) {
          out[i] = co_await c.read_u32(c.my_global(kData + 4 * i));
        }
      }
    }(ctx, got);
  });
  wg.run();
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(got[i], 100 + i);
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

TEST(Sanitizer, MutexProtectedCounterIsClean) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 2, 1);
  const Addr mutex_at = sys.machine().mem().map().global({0, 0}, kFlag);
  const Addr counter_at = sys.machine().mem().map().global({0, 0}, kData);
  const std::uint32_t zero = 0;
  sys.write(counter_at, std::as_bytes(std::span<const std::uint32_t, 1>(&zero, 1)));
  wg.load([=](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, Addr mtx, Addr ctr) -> sim::Op<void> {
      for (int i = 0; i < 3; ++i) {
        co_await c.mutex_lock(mtx);
        const std::uint32_t v = co_await c.read_u32(ctr);
        co_await c.write_u32(ctr, v + 1);
        co_await c.mutex_unlock(mtx);
      }
    }(ctx, mutex_at, counter_at);
  });
  wg.run();
  std::uint32_t total = 0;
  sys.read(counter_at, std::as_writable_bytes(std::span<std::uint32_t, 1>(&total, 1)));
  EXPECT_EQ(total, 6u);
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

TEST(Sanitizer, HostReadbackAfterWaitIsOrdered) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(2, 3, 1, 1);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      co_await c.write_u32(c.my_global(kData), 7);
    }(ctx);
  });
  wg.run();
  std::uint32_t out = 0;
  sys.read(sys.machine().mem().map().global({2, 3}, kData),
           std::as_writable_bytes(std::span<std::uint32_t, 1>(&out, 1)));
  EXPECT_EQ(out, 7u);
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

TEST(Sanitizer, RepeatedRacingReadsReportOnce) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 2);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      if (c.group_index() == 0) {
        co_await c.write_u32(c.global({0, 1}, kData), 1);
      } else {
        co_await c.compute(10000);
        for (int i = 0; i < 5; ++i) {
          (void)co_await c.read_u32(c.my_global(kData));
        }
      }
    }(ctx);
  });
  wg.run();
  EXPECT_EQ(san.count("race"), 1u) << dump(san);
}

TEST(Sanitizer, DisableDetaches) {
  host::System sys;
  {
    lint::MemSanitizer san(sys.machine().mem());
    EXPECT_EQ(sys.machine().mem().hooks().size(), 1u);
  }
  EXPECT_TRUE(sys.machine().mem().hooks().empty());
}

}  // namespace
