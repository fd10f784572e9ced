// Unit tests for scratchpad, external memory, address resolution and the
// watch mechanism.

#include <gtest/gtest.h>

#include <unistd.h>
#if defined(__linux__)
#include <malloc.h>  // mallopt, mallinfo2
#endif

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "host/system.hpp"
#include "mem/memory_system.hpp"
#include "sim/task.hpp"

namespace {

using namespace epi;
using arch::Addr;
using arch::CoreCoord;

/// A scratchpad's bytes, for a LocalMemory view to look at.
struct Scratchpad {
  alignas(8) std::array<std::byte, mem::LocalMemory::kBytes> bytes{};
  mem::LocalMemory lm{bytes.data()};
};

/// Park until the u32 at `a` satisfies `pred`: CoreCtx::wait_u32's loop,
/// without a workgroup.
template <typename Pred>
sim::Op<void> wait_flag(mem::MemorySystem& m, Addr a, CoreCoord issuer, Pred pred) {
  while (!pred(m.read_u32_raw(a, issuer))) co_await m.watch(a, issuer);
  m.acquired(issuer);
}

TEST(LocalMemory, ReadWriteRoundTrip) {
  Scratchpad pad;
  mem::LocalMemory& lm = pad.lm;
  const std::uint32_t v = 0xDEADBEEF;
  lm.write(0x100, std::as_bytes(std::span<const std::uint32_t, 1>(&v, 1)));
  std::uint32_t out = 0;
  lm.read(0x100, std::as_writable_bytes(std::span<std::uint32_t, 1>(&out, 1)));
  EXPECT_EQ(out, v);
}

TEST(LocalMemory, OutOfRangeThrows) {
  Scratchpad pad;
  const mem::LocalMemory& lm = pad.lm;
  EXPECT_THROW((void)lm.span(32 * 1024, 1), std::out_of_range);
  EXPECT_THROW((void)lm.span(32 * 1024 - 2, 4), std::out_of_range);
  EXPECT_NO_THROW((void)lm.span(32 * 1024 - 4, 4));
  // Offset+size overflow must not wrap.
  EXPECT_THROW((void)lm.span(0x7FFF, ~std::size_t{0}), std::out_of_range);
}

TEST(LocalMemory, BankOccupancyPenalty) {
  Scratchpad pad;
  mem::LocalMemory& lm = pad.lm;
  lm.occupy_banks(0x2000, 0x100, 500);
  EXPECT_EQ(lm.bank_conflict_penalty(0x2010, 100), 1u);   // same bank, busy
  EXPECT_EQ(lm.bank_conflict_penalty(0x2010, 600), 0u);   // busy window over
  EXPECT_EQ(lm.bank_conflict_penalty(0x0010, 100), 0u);   // different bank
}

class MemorySystemTest : public ::testing::Test {
protected:
  sim::Engine engine;
  mem::MemorySystem mem{arch::MeshDims{4, 4}, engine};
};

TEST_F(MemorySystemTest, LocalAliasResolvesToIssuer) {
  const CoreCoord a{1, 2};
  const CoreCoord b{2, 1};
  mem.write_value<std::uint32_t>(0x4000, 111, a);
  mem.write_value<std::uint32_t>(0x4000, 222, b);
  EXPECT_EQ(mem.read_value<std::uint32_t>(0x4000, a), 111u);
  EXPECT_EQ(mem.read_value<std::uint32_t>(0x4000, b), 222u);
}

TEST_F(MemorySystemTest, GlobalAddressHitsRemoteCore) {
  const CoreCoord writer{0, 0};
  const CoreCoord target{3, 3};
  const Addr remote = mem.map().global(target, 0x1000);
  mem.write_value<float>(remote, 2.5f, writer);
  // The target sees the value through its local alias.
  EXPECT_EQ(mem.read_value<float>(0x1000, target), 2.5f);
}

TEST_F(MemorySystemTest, ExternalWindowSharedByAll) {
  const Addr ext = arch::AddressMap::kExternalBase + 0x100;
  mem.write_value<std::uint64_t>(ext, 0x0123456789ABCDEFull, {0, 0});
  EXPECT_EQ(mem.read_value<std::uint64_t>(ext, {3, 2}), 0x0123456789ABCDEFull);
}

TEST_F(MemorySystemTest, FreshExternalWindowReadsZeroToItsLastByte) {
  const std::size_t bytes = mem.map().external_bytes;
  const auto window = mem.external_span(0, bytes);
  EXPECT_TRUE(std::all_of(window.begin(), window.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_THROW((void)mem.external_span(static_cast<std::uint32_t>(bytes), 1),
               std::out_of_range);
}

// The DRAM window's pages are committed on first touch, so machines that
// touch none of it cost their scratchpads and bookkeeping, not 32 MB each.
TEST(MemoryFootprint, EightSystemsCommitNoDramTheyDoNotTouch) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator and shadow memory decide resident pages, "
                  "not the simulator's own allocations";
#else
  const auto resident_mb = [] {
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0, resident = 0;
    statm >> size >> resident;
    return statm ? static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20) : -1.0;
  };
  const double before = resident_mb();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm is not readable";
  std::vector<std::unique_ptr<host::System>> systems;
  for (int i = 0; i < 8; ++i) systems.push_back(std::make_unique<host::System>());
  // Zero-filling every window would commit 8 x 32 MB = 256 MB.
  EXPECT_LT(resident_mb() - before, 64.0);
#endif
}

// Scratchpads and DRAM live in the machine's own mapping, so no heap layout
// can pull them into committed heap pages: with glibc told to serve even
// 32 MB blocks from the heap, building a System still leaves the heap's
// allocated bytes nearly where they were (a calloc'd DRAM window and a
// vector of scratchpads added 35.9 MB here).
TEST(MemoryArenaDeathTest, SystemTakesNoMachineMemoryFromTheMallocHeap) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator replaces the glibc heap this test reads";
#elif !defined(__GLIBC__) || (__GLIBC__ == 2 && __GLIBC_MINOR__ < 33)
  GTEST_SKIP() << "needs glibc's mallopt and mallinfo2";
#else
  EXPECT_EXIT(
      {
        mallopt(M_MMAP_THRESHOLD, 64 << 20);
        const std::size_t before = mallinfo2().uordblks;
        const host::System sys;
        const std::size_t grew = mallinfo2().uordblks - before;
        std::fprintf(stderr, "heap grew by %zu bytes\n", grew);
        std::_Exit(grew < (std::size_t{1} << 20) ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "heap grew by");
#endif
}

TEST_F(MemorySystemTest, UnmappedAddressThrows) {
  EXPECT_THROW(mem.write_value<std::uint32_t>(0x10000000, 0, {0, 0}), std::out_of_range);
  // Core id outside the 4x4 mesh:
  EXPECT_THROW(mem.write_value<std::uint32_t>(0x9CF00000, 0, {0, 0}), std::out_of_range);
}

TEST_F(MemorySystemTest, CopyMovesBytesBetweenCores) {
  const CoreCoord src{0, 1};
  const CoreCoord dst{1, 0};
  std::vector<float> data{1.0f, 2.0f, 3.0f};
  mem.write_bytes(mem.map().global(src, 0x2000), std::as_bytes(std::span(data)), src);
  mem.copy(mem.map().global(dst, 0x3000), mem.map().global(src, 0x2000),
           data.size() * sizeof(float), src);
  std::vector<float> out(3);
  mem.read_bytes(mem.map().global(dst, 0x3000), std::as_writable_bytes(std::span(out)), dst);
  EXPECT_EQ(out, data);
}

TEST_F(MemorySystemTest, WatchWakesOnRemoteWrite) {
  const CoreCoord waiter{1, 1};
  const CoreCoord writer{0, 0};
  const Addr flag = mem.map().global(waiter, 0x2F00);
  mem.write_value<std::uint32_t>(flag, 0, writer);

  sim::Cycles woke_at = 0;
  sim::spawn(engine, [](mem::MemorySystem& m, sim::Engine& e, Addr f, CoreCoord w,
                        sim::Cycles& t) -> sim::Op<void> {
    co_await wait_flag(m, f, w, [](std::uint32_t v) { return v >= 3; });
    t = e.now();
  }(mem, engine, flag, waiter, woke_at));

  // Writes below the threshold must not release the waiter.
  engine.call_at(100, [&] { mem.write_value<std::uint32_t>(flag, 2, writer); });
  engine.call_at(200, [&] { mem.write_value<std::uint32_t>(flag, 3, writer); });
  engine.run();
  EXPECT_GE(woke_at, 200u);
  EXPECT_LE(woke_at, 205u);
  EXPECT_EQ(mem.active_watches(), 0u);
}

TEST_F(MemorySystemTest, WatchOnLocalAliasWokenByGlobalWrite) {
  const CoreCoord waiter{2, 2};
  const CoreCoord writer{0, 3};
  sim::Cycles woke_at = 0;
  // Waiter spins on its *local alias* address; writer stores to the global
  // form. The canonicalisation must connect them.
  sim::spawn(engine, [](mem::MemorySystem& m, sim::Engine& e, CoreCoord w,
                        sim::Cycles& t) -> sim::Op<void> {
    co_await wait_flag(m, 0x2F00, w, [](std::uint32_t v) { return v == 7; });
    t = e.now();
  }(mem, engine, waiter, woke_at));
  engine.call_at(50, [&] {
    mem.write_value<std::uint32_t>(mem.map().global(waiter, 0x2F00), 7, writer);
  });
  engine.run();
  EXPECT_GE(woke_at, 50u);
  EXPECT_LE(woke_at, 55u);
}

TEST_F(MemorySystemTest, PredicateAlreadyTrueDoesNotBlock) {
  const CoreCoord c{0, 0};
  mem.write_value<std::uint32_t>(0x2F00, 9, c);
  bool done = false;
  sim::spawn(engine, [](mem::MemorySystem& m, CoreCoord cc, bool& d) -> sim::Op<void> {
    co_await wait_flag(m, 0x2F00, cc, [](std::uint32_t v) { return v == 9; });
    d = true;
  }(mem, c, done));
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.now(), 0u);
}

TEST_F(MemorySystemTest, MultipleWatchersOnSameAddress) {
  const CoreCoord c{1, 3};
  const Addr flag = mem.map().global(c, 0x2F10);
  mem.write_value<std::uint32_t>(flag, 0, c);
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    sim::spawn(engine, [](mem::MemorySystem& m, Addr f, CoreCoord cc, int& n) -> sim::Op<void> {
      co_await wait_flag(m, f, cc, [](std::uint32_t v) { return v != 0; });
      ++n;
    }(mem, flag, c, woke));
  }
  engine.call_at(10, [&] { mem.write_value<std::uint32_t>(flag, 1, c); });
  engine.run();
  EXPECT_EQ(woke, 5);
}

TEST_F(MemorySystemTest, ExternalSpanBoundsChecked) {
  EXPECT_NO_THROW((void)mem.external_span(0, 16));
  EXPECT_THROW((void)mem.external_span(arch::AddressMap::kExternalBytes, 1),
               std::out_of_range);
  EXPECT_THROW((void)mem.external_span(arch::AddressMap::kExternalBytes - 4, 8),
               std::out_of_range);
}

// ---- resolve() edge cases ------------------------------------------------

TEST_F(MemorySystemTest, ResolveZeroLengthAtBoundaries) {
  const CoreCoord c{0, 0};
  // A zero-length span exactly at the end of a scratchpad (or the external
  // window) is addressable emptiness, not an overflow.
  EXPECT_NO_THROW((void)mem.resolve(arch::AddressMap::kLocalMemBytes, 0, c));
  EXPECT_EQ(mem.resolve(arch::AddressMap::kLocalMemBytes, 0, c).size(), 0u);
  const Addr ext_end = mem.map().external_base + arch::AddressMap::kExternalBytes;
  EXPECT_NO_THROW((void)mem.resolve(ext_end - 4, 4, c));
  EXPECT_THROW((void)mem.resolve(ext_end - 4, 8, c), std::out_of_range);
}

TEST_F(MemorySystemTest, ResolveScratchpadBoundary) {
  const CoreCoord c{2, 3};
  const Addr base = mem.map().global(c, 0);
  constexpr Addr kSize = arch::AddressMap::kLocalMemBytes;
  EXPECT_NO_THROW((void)mem.resolve(base + kSize - 4, 4, c));
  EXPECT_THROW((void)mem.resolve(base + kSize - 2, 4, c), std::out_of_range);
  // Local-alias form of the same overflow.
  EXPECT_THROW((void)mem.resolve(kSize - 2, 4, c), std::out_of_range);
}

TEST_F(MemorySystemTest, ResolveExternalWindowBoundary) {
  const CoreCoord c{0, 0};
  const Addr base = mem.map().external_base;
  constexpr Addr kSize = arch::AddressMap::kExternalBytes;
  EXPECT_NO_THROW((void)mem.resolve(base, 4, c));
  EXPECT_NO_THROW((void)mem.resolve(base + kSize - 4, 4, c));
  // One past the window is not external any more: unmapped.
  EXPECT_THROW((void)mem.resolve(base + kSize, 4, c), std::out_of_range);
}

TEST_F(MemorySystemTest, UnmappedAddressNamesTheAddress) {
  const CoreCoord c{0, 0};
  try {
    (void)mem.resolve(0x40000000, 4, c);  // between core windows and DRAM
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unmapped global address 0x"), std::string::npos) << what;
    EXPECT_NE(what.find("40000000"), std::string::npos) << what;
  }
}

// ---- write_words: the bulk owner store ------------------------------------

/// Records every hook callback, in order.
struct RecordingHook : mem::MemoryHook {
  std::vector<std::tuple<char, Addr, std::size_t, unsigned, unsigned, sim::Cycles>> calls;
  void on_write(Addr a, std::size_t n, CoreCoord c, sim::Cycles now) override {
    calls.emplace_back('w', a, n, c.row, c.col, now);
  }
  void on_read(Addr a, std::size_t n, CoreCoord c, sim::Cycles now) override {
    calls.emplace_back('r', a, n, c.row, c.col, now);
  }
  void on_sync(CoreCoord c, sim::Cycles now) override {
    calls.emplace_back('s', 0, 0, c.row, c.col, now);
  }
};

struct StoreTrace {
  std::vector<std::byte> bytes;  // the range plus 8 bytes either side
  decltype(RecordingHook::calls) calls;
  std::vector<int> wakes;        // watcher ids in resumption order
};

/// Store `words` at `a` (as `issuer`) at cycle 10, either with one
/// write_words call or with the equivalent ascending write_value loop, while
/// three watchers wait: one inside the range, one on its first word and one
/// 3 bytes before it (spawned in that order, so wake order is not spawn
/// order).
StoreTrace store_trace(Addr a, CoreCoord issuer, const std::vector<std::uint32_t>& words,
                       bool bulk) {
  sim::Engine engine;
  mem::MemorySystem mem{arch::MeshDims{4, 4}, engine};
  RecordingHook hook;
  mem.add_hook(&hook);
  StoreTrace out;
  const std::vector<Addr> watched = {a + 8, a, a - 3};
  for (int id = 0; id < 3; ++id) {
    sim::spawn(engine, [](mem::MemorySystem& m, Addr f, CoreCoord c, int me,
                          std::vector<int>& log) -> sim::Op<void> {
      co_await wait_flag(m, f, c, [](std::uint32_t v) { return v != 0; });
      log.push_back(me);
    }(mem, watched[id], issuer, id, out.wakes));
  }
  engine.call_at(10, [&] {
    if (bulk) {
      mem.write_words(a, words, issuer);
    } else {
      for (std::size_t i = 0; i < words.size(); ++i) {
        mem.write_value<std::uint32_t>(a + static_cast<Addr>(4 * i), words[i], issuer);
      }
    }
  });
  engine.run();
  const auto span = mem.resolve(a - 8, 4 * words.size() + 16, issuer);
  out.bytes.assign(span.begin(), span.end());
  out.calls = hook.calls;
  return out;
}

TEST(MemoryWriteWords, MatchesPerWordStores) {
  const std::vector<std::uint32_t> words = {0x11223344, 0x55667788, 0x99AABBCC,
                                            0xDDEEFF11, 0x12345678};
  const CoreCoord issuer{1, 2};
  const auto map = arch::AddressMap::make(arch::MeshDims{4, 4});
  const Addr scratch = map.global(issuer, 0x2F00);
  const Addr dram = map.external_base + 0x1000;
  for (const Addr a : {scratch, Addr{0x2F00} /* local alias */, dram}) {
    SCOPED_TRACE(a);
    const StoreTrace bulk = store_trace(a, issuer, words, true);
    const StoreTrace loop = store_trace(a, issuer, words, false);
    EXPECT_EQ(bulk.bytes, loop.bytes);
    EXPECT_EQ(bulk.calls, loop.calls);
    EXPECT_EQ(bulk.wakes, loop.wakes);
    // One per-word on_write per word (never one range call), canonical
    // addresses, then the three acquires.
    ASSERT_EQ(bulk.calls.size(), words.size() + 3);
    const Addr ca = a == 0x2F00 ? scratch : a;
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(bulk.calls[i], std::make_tuple('w', ca + static_cast<Addr>(4 * i),
                                               std::size_t{4}, 1u, 2u, sim::Cycles{10}));
    }
    EXPECT_EQ(bulk.wakes, (std::vector<int>{2, 1, 0}));  // ascending address
  }
}

TEST(MemoryWriteWords, RangePastTheEndThrowsBeforeWriting) {
  sim::Engine engine;
  mem::MemorySystem mem{arch::MeshDims{4, 4}, engine};
  RecordingHook hook;
  mem.add_hook(&hook);
  const CoreCoord c{2, 3};
  const std::vector<std::uint32_t> words(4, 0xFFFFFFFFu);
  const Addr scratch_end = mem.map().global(c, arch::AddressMap::kLocalMemBytes);
  const Addr dram_end = mem.map().external_base + arch::AddressMap::kExternalBytes;
  for (const Addr end : {scratch_end, dram_end}) {
    // Two words fit, two do not: nothing may be written.
    EXPECT_THROW(mem.write_words(end - 8, words, c), std::out_of_range);
    std::uint64_t tail = 1;
    std::memcpy(&tail, mem.resolve(end - 8, 8, c).data(), sizeof tail);
    EXPECT_EQ(tail, 0u);
  }
  EXPECT_TRUE(hook.calls.empty());
}

// ---- copy_runs: the DMA chunk commit ---------------------------------------

/// One chunk to commit on a 4x4 machine: `fill_bytes` of pattern at `fill`,
/// one watcher per flag (waiting for a non-zero word), and the bytes of
/// [snap, snap + snap_bytes) compared afterwards.
struct RunsCase {
  const char* name;
  std::vector<mem::CopyRun> runs;
  std::uint32_t esz;
  CoreCoord issuer;
  Addr fill;
  std::size_t fill_bytes;
  std::vector<Addr> flags;
  Addr snap;
  std::size_t snap_bytes;
};

struct RunsLog {
  std::vector<std::byte> bytes;
  decltype(RecordingHook::calls) calls;
  std::vector<std::pair<int, sim::Cycles>> wakes;  // (flag, cycle), in wake order
  bool threw = false;
};

/// The reference commit of one run: one copy() per run, or per element when
/// the run overlaps itself (the DMA engine's element walk).
void copy_run_by_copies(mem::MemorySystem& m, const mem::CopyRun& r, std::uint32_t esz,
                        CoreCoord issuer) {
  const auto canonical = [&](Addr a) {
    return arch::AddressMap::is_local_alias(a)
               ? m.map().global(issuer, arch::AddressMap::local_offset(a))
               : a;
  };
  const Addr cs = canonical(r.src);
  const Addr cd = canonical(r.dst);
  const Addr dist = cs > cd ? cs - cd : cd - cs;
  if (r.elems > 1 && dist != 0 && dist < r.elems * esz) {
    for (std::uint32_t e = 0; e < r.elems; ++e) m.copy(r.dst + e * esz, r.src + e * esz, esz, issuer);
  } else {
    m.copy(r.dst, r.src, std::size_t{r.elems} * esz, issuer);
  }
}

/// Commit `c` at cycle 10 with one copy_runs call (`bulk`) or run by run
/// through copy_run_by_copies, with or without a recording hook. At cycle
/// 1000 every flag still zero is set to 1, so no watcher stays parked.
RunsLog runs_log(const RunsCase& c, bool bulk, bool hooked) {
  sim::Engine engine;
  mem::MemorySystem mem{arch::MeshDims{4, 4}, engine};
  std::vector<std::byte> img(c.fill_bytes);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  mem.write_bytes(c.fill, img, c.issuer);
  RecordingHook hook;
  if (hooked) mem.add_hook(&hook);
  RunsLog out;
  for (int id = 0; id < static_cast<int>(c.flags.size()); ++id) {
    sim::spawn(engine, [](mem::MemorySystem& m, sim::Engine& e, Addr f, CoreCoord w, int me,
                          RunsLog& log) -> sim::Op<void> {
      co_await wait_flag(m, f, w, [](std::uint32_t v) { return v != 0; });
      log.wakes.emplace_back(me, e.now());
    }(mem, engine, c.flags[id], c.issuer, id, out));
  }
  engine.call_at(10, [&] {
    try {
      if (bulk) {
        mem.copy_runs(c.runs, c.esz, c.issuer);
      } else {
        for (const mem::CopyRun& r : c.runs) copy_run_by_copies(mem, r, c.esz, c.issuer);
      }
    } catch (const std::out_of_range&) {
      out.threw = true;
    }
  });
  engine.call_at(1000, [&] {
    for (const Addr f : c.flags) {
      if (mem.read_u32_raw(f, c.issuer) == 0) mem.write_value<std::uint32_t>(f, 1, c.issuer);
    }
  });
  engine.run();
  const auto span = mem.resolve(c.snap, c.snap_bytes, c.issuer);
  out.bytes.assign(span.begin(), span.end());
  out.calls = hook.calls;
  return out;
}

// Hooked or not, one copy_runs call must commit like one copy() per run: the
// same bytes, the same hook calls (canonical addresses and sizes, in order)
// and the same wakes. Only a chunk that spans two 1 MB windows or holds a
// run that does not resolve takes the run-by-run path inside copy_runs.
TEST(MemoryCopyRuns, MatchesOneCopyPerRun) {
  const auto map = arch::AddressMap::make(arch::MeshDims{4, 4});
  const Addr g11 = map.global({1, 1}, 0x2000);
  const Addr dram = map.external_base;
  std::vector<mem::CopyRun> scatter;  // 20 words to every fourth word of (0,1)
  for (Addr i = 0; i < 20; ++i) {
    scatter.push_back({map.global({0, 0}, 0x2000 + 4 * i), map.global({0, 1}, 0x3000 + 16 * i), 1});
  }
  const Addr sd = map.global({0, 1}, 0x3000);
  const std::vector<RunsCase> cases = {
      {"overlap forward, then a plain run",
       {{g11 + 0x100, g11 + 0x104, 50}, {g11 + 0x400, g11 + 0x600, 16}},
       4, {1, 1}, g11, 0x800, {g11 + 0x120, g11 + 0x610}, g11, 0x800},
      {"overlap backward, dwords",
       {{g11 + 0x108, g11 + 0x100, 40}}, 8, {1, 1}, g11, 0x800, {g11 + 0x100}, g11, 0x800},
      {"local alias to its own global window",
       {{0x2100, g11 + 0x104, 60}}, 4, {1, 1}, g11, 0x800, {0x2200}, g11, 0x800},
      {"strided scatter", scatter, 4, {0, 1}, map.global({0, 0}, 0x2000), 80,
       {sd + 5 * 16, sd + 5 * 16 + 4, sd - 3}, sd - 16, 20 * 16 + 32},
      {"dram to scratch",
       {{dram + 0x40, g11 + 0x300, 24}, {dram + 0x200, g11 + 0x400, 8}},
       8, {1, 1}, dram, 0x400, {g11 + 0x400}, g11 + 0x300, 0x200},
      {"dram straddling a window",
       {{dram + 0x100000 - 64, g11, 8}, {dram + 0x100000, g11 + 64, 8}},
       8, {1, 1}, dram + 0x100000 - 64, 128, {g11 + 64}, g11, 128},
      {"third run past the scratchpad",
       {{map.global({2, 1}, 0x2000), map.global({2, 2}, 0x6000), 1},
        {map.global({2, 1}, 0x2004), map.global({2, 2}, 0x7000), 1},
        {map.global({2, 1}, 0x2008), map.global({2, 2}, 0x8000), 1}},
       4, {2, 1}, map.global({2, 1}, 0x2000), 12, {}, map.global({2, 2}, 0x6000), 0x2000},
  };
  for (const RunsCase& c : cases) {
    for (const bool hooked : {false, true}) {
      SCOPED_TRACE(testing::Message() << c.name << (hooked ? ", hooked" : ""));
      const RunsLog bulk = runs_log(c, true, hooked);
      const RunsLog ref = runs_log(c, false, hooked);
      EXPECT_EQ(bulk.bytes, ref.bytes);
      EXPECT_EQ(bulk.calls, ref.calls);
      EXPECT_EQ(bulk.wakes, ref.wakes);
      EXPECT_EQ(bulk.threw, ref.threw);
      EXPECT_EQ(hooked, !bulk.calls.empty());
    }
  }
}

}  // namespace
