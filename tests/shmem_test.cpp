// epi-shmem: the OpenSHMEM-style PGAS runtime. Covers the symmetric heap
// (alignment, determinism, exhaustion), one-sided put/get on both the
// direct-store and DMA paths, put_with_signal ordering, barrier_all with a
// straggler, collectives against host references, the shmem.* counters, and
// the sanitizer contract: clean shmem programs produce zero findings while
// a get-before-signal consumer is flagged as a race.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "lint/sanitizer.hpp"
#include "shmem/shmem.hpp"
#include "shmem/workloads.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/fmt.hpp"

namespace {

using namespace epi;
using arch::Addr;

std::string dump(const lint::MemSanitizer& san) {
  std::string s;
  for (const auto& f : san.findings()) s += f.format("<run>") + "\n";
  return s;
}

// ---- symmetric heap -------------------------------------------------------

TEST(ShmemHeap, AllocatesAlignedAndDeterministic) {
  shmem::SymmetricHeap h(shmem::kHeapBase, shmem::kHeapEnd);
  const Addr a = h.alloc(12);           // default 8-byte alignment
  const Addr b = h.alloc(4, 4);
  const Addr c = h.alloc(64, 32);
  EXPECT_EQ(a, shmem::kHeapBase);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b, a + 12u);                // 12 is already 4-aligned
  EXPECT_EQ(c % 32, 0u);
  EXPECT_GE(c, b + 4u);
  // Same allocation sequence, same offsets: the property verify-at-reap
  // leans on to re-derive a job's plan without carrying state.
  shmem::SymmetricHeap h2(shmem::kHeapBase, shmem::kHeapEnd);
  EXPECT_EQ(h2.alloc(12), a);
  EXPECT_EQ(h2.alloc(4, 4), b);
  EXPECT_EQ(h2.alloc(64, 32), c);
}

TEST(ShmemHeap, ExhaustionAndBadArgumentsThrow) {
  shmem::SymmetricHeap h(0x2000, 0x2100);  // 256-byte heap
  EXPECT_THROW((void)h.alloc(0), std::invalid_argument);
  EXPECT_THROW((void)h.alloc(8, 3), std::invalid_argument);   // not a power of 2
  EXPECT_THROW((void)h.alloc(0x200), std::bad_alloc);         // larger than heap
  (void)h.alloc(0xF8);
  EXPECT_THROW((void)h.alloc(16), std::bad_alloc);            // now exhausted
  h.reset();
  EXPECT_EQ(h.alloc(16), 0x2000u);
  // The heap may not overlap the runtime flag words or leave the scratchpad.
  EXPECT_THROW(shmem::SymmetricHeap(0x0100, 0x2000), std::invalid_argument);
  EXPECT_THROW(shmem::SymmetricHeap(0x2000, 0x2000), std::invalid_argument);
  EXPECT_THROW(
      shmem::SymmetricHeap(0x2000, arch::AddressMap::kLocalMemBytes + 4),
      std::invalid_argument);
}

// ---- one-sided put/get ----------------------------------------------------

/// PE 0 pushes one small (direct-store path) and one large (DMA path) block
/// into PE 1 and signals; PE 1 acquires on the signal. Host-validates both
/// landing zones afterwards; with the sanitizer armed the run must be clean.
TEST(Shmem, PutSmallAndLargeWithSignal) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 2);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const std::uint32_t small_bytes = 16;    // <= kDmaThreshold: direct stores
  const std::uint32_t large_bytes = 1024;  // > kDmaThreshold: DMA descriptor
  const Addr small = group->heap().alloc(small_bytes);
  const Addr large = group->heap().alloc(large_bytes);
  const Addr sig = group->heap().alloc(4, 4);
  // Non-blocking puts on both paths, completed by quiet() (and fence()).
  const Addr nbi_small = group->heap().alloc(small_bytes);
  const Addr nbi_large = group->heap().alloc(large_bytes);

  wg.load([group, small, large, sig, nbi_small,
           nbi_large](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Addr sm,
              Addr lg, Addr flag, Addr nsm, Addr nlg) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      if (pe.my_pe() == 0) {
        auto& mem = g->machine().mem();
        for (std::uint32_t off = 0; off < 16; off += 4) {
          mem.write_value<std::uint32_t>(c.my_global(sm + off), 0x5100 + off,
                                         c.coord());
          mem.write_value<std::uint32_t>(c.my_global(nsm + off), 0x6100 + off,
                                         c.coord());
        }
        for (std::uint32_t off = 0; off < 1024; off += 4) {
          mem.write_value<std::uint32_t>(c.my_global(lg + off), 0xB1000000 + off,
                                         c.coord());
          mem.write_value<std::uint32_t>(c.my_global(nlg + off), 0xC1000000 + off,
                                         c.coord());
        }
        co_await pe.put(1, sm, sm, 16);
        co_await pe.put_nbi(1, nsm, nsm, 16);
        co_await pe.quiet();
        co_await pe.put_nbi(1, nlg, nlg, 1024);
        co_await pe.fence();
        co_await pe.quiet();
        co_await pe.put_with_signal(1, lg, lg, 1024, flag, 1);
      } else {
        co_await pe.wait_signal_ge(flag, 1);
        // Touch both blocks under the acquire edge (clean to the sanitizer).
        (void)co_await c.read_u32(c.my_global(sm));
        (void)co_await c.read_u32(c.my_global(lg + 1020));
      }
    }(ctx, group, small, large, sig, nbi_small, nbi_large);
  });
  wg.run();

  const auto& map = sys.machine().mem().map();
  const arch::CoreCoord peer{0, 1};
  const auto peer_word = [&](Addr off) {
    std::uint32_t got = 0;
    sys.read(map.global(peer, off),
             std::as_writable_bytes(std::span<std::uint32_t, 1>(&got, 1)));
    return got;
  };
  for (std::uint32_t off = 0; off < small_bytes; off += 4) {
    EXPECT_EQ(peer_word(small + off), 0x5100 + off);
    EXPECT_EQ(peer_word(nbi_small + off), 0x6100 + off);
  }
  for (std::uint32_t off = 0; off < large_bytes; off += 4) {
    EXPECT_EQ(peer_word(large + off), 0xB1000000 + off);
    EXPECT_EQ(peer_word(nbi_large + off), 0xC1000000 + off);
  }
  EXPECT_TRUE(san.findings().empty()) << dump(san);
  // put + two put_nbi + put_with_signal (whose bytes include the 4-byte flag).
  EXPECT_EQ(group->counters().value("shmem.puts"), 4.0);
  EXPECT_EQ(group->counters().value("shmem.bytes"),
            static_cast<double>(2 * small_bytes + 2 * large_bytes + 4));
}

/// PE 1 pulls host-preloaded data out of PE 0 on both get paths.
TEST(Shmem, GetSmallAndLarge) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(2, 1, 1, 2);  // off-origin group: addressing is relative
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const std::uint32_t small_bytes = 32;
  const std::uint32_t large_bytes = 512;
  const Addr src_small = group->heap().alloc(small_bytes);
  const Addr src_large = group->heap().alloc(large_bytes);
  const Addr dst_small = group->heap().alloc(small_bytes);
  const Addr dst_large = group->heap().alloc(large_bytes);

  const auto& map = sys.machine().mem().map();
  std::vector<std::uint32_t> payload;
  for (std::uint32_t w = 0; w < (small_bytes + large_bytes) / 4; ++w) {
    payload.push_back(0xD000 + w * 3);
  }
  sys.write(map.global({2, 1}, src_small),
            std::as_bytes(std::span(payload.data(), small_bytes / 4)));
  sys.write(map.global({2, 1}, src_large),
            std::as_bytes(std::span(payload.data() + small_bytes / 4,
                                    large_bytes / 4)));

  wg.load([=](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Addr ss,
              Addr sl, Addr ds, Addr dl) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      if (pe.my_pe() == 1) {
        co_await pe.get(0, ds, ss, 32);
        co_await pe.get(0, dl, sl, 512);
      }
    }(ctx, group, src_small, src_large, dst_small, dst_large);
  });
  wg.run();

  for (std::uint32_t w = 0; w < (small_bytes + large_bytes) / 4; ++w) {
    const Addr at = w < small_bytes / 4
                        ? dst_small + 4 * w
                        : dst_large + 4 * (w - small_bytes / 4);
    std::uint32_t got = 0;
    sys.read(map.global({2, 2}, at),
             std::as_writable_bytes(std::span<std::uint32_t, 1>(&got, 1)));
    EXPECT_EQ(got, payload[w]) << "word " << w;
  }
  EXPECT_TRUE(san.findings().empty()) << dump(san);
  EXPECT_GE(group->counters().value("shmem.gets"), 2.0);
}

// ---- barrier_all ----------------------------------------------------------

/// All-to-all token exchange around barrier_all, with the last PE straggling
/// 200k cycles before it deposits. If the barrier released anyone early the
/// token check (and the sanitizer) would catch the stale read.
TEST(Shmem, BarrierAllHoldsForStraggler) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(1, 3, 2, 2);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned n = group->n_pes();
  const Addr box = group->heap().alloc(4 * n);   // one slot per sender
  const Addr stage = group->heap().alloc(4, 4);  // my outgoing token
  std::vector<std::uint32_t> got(n * n, 0);

  wg.load([&got, group, box, stage](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Addr bx,
              Addr st, std::vector<std::uint32_t>& out) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      const unsigned me = pe.my_pe();
      const unsigned np = pe.n_pes();
      if (me == np - 1) co_await c.compute(200'000);  // straggler
      co_await c.write_u32(c.my_global(st), 0xAA00 + me);
      co_await c.write_u32(c.my_global(bx + 4 * me), 0xAA00 + me);
      for (unsigned p = 0; p < np; ++p) {
        if (p != me) co_await pe.put(p, bx + 4 * me, st, 4);
      }
      co_await pe.barrier_all();
      for (unsigned p = 0; p < np; ++p) {
        out[me * np + p] = co_await c.read_u32(c.my_global(bx + 4 * p));
      }
    }(ctx, group, box, stage, got);
  });
  wg.run();

  for (unsigned me = 0; me < n; ++me) {
    for (unsigned p = 0; p < n; ++p) {
      EXPECT_EQ(got[me * n + p], 0xAA00 + p) << "PE " << me << " slot " << p;
    }
  }
  EXPECT_TRUE(san.findings().empty()) << dump(san);
  EXPECT_GE(group->counters().value("shmem.barrier_waits"),
            static_cast<double>(2 * n));  // ceil(log2(4)) rounds per PE
}

// ---- collectives ----------------------------------------------------------

TEST(Shmem, AllreduceMatchesHostReference) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 2, 3);  // 6 PEs: a non-power-of-two tree
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned n = group->n_pes();

  std::vector<std::int32_t> vi(n);
  std::vector<float> vf(n);
  for (unsigned p = 0; p < n; ++p) {
    vi[p] = static_cast<std::int32_t>(p) * 3 - 4;
    vf[p] = static_cast<float>(p) * 0.5f - 1.25f;
  }
  std::int32_t isum = 0, imin = vi[0], imax = vi[0];
  float fsum = 0.0f, fmin = vf[0], fmax = vf[0];
  for (unsigned p = 0; p < n; ++p) {
    isum += vi[p];
    imin = std::min(imin, vi[p]);
    imax = std::max(imax, vi[p]);
    fmin = std::min(fmin, vf[p]);
    fmax = std::max(fmax, vf[p]);
  }
  // The tree reduces in a fixed deterministic order; for the float *sum* we
  // compare against that exact order (combine is left-to-right up the tree,
  // which for these values is still exact anyway).
  for (unsigned p = 0; p < n; ++p) fsum += vf[p];

  std::vector<std::int32_t> ri_sum(n), ri_min(n), ri_max(n);
  std::vector<float> rf_sum(n), rf_min(n), rf_max(n);
  wg.load([&](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g,
              std::vector<std::int32_t>& in_i, std::vector<float>& in_f,
              std::vector<std::int32_t>& o_sum, std::vector<std::int32_t>& o_min,
              std::vector<std::int32_t>& o_max, std::vector<float>& f_sum,
              std::vector<float>& f_min, std::vector<float>& f_max)
               -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      const unsigned me = pe.my_pe();
      o_sum[me] = co_await pe.allreduce_i32(shmem::ReduceOp::Sum, in_i[me]);
      o_min[me] = co_await pe.allreduce_i32(shmem::ReduceOp::Min, in_i[me]);
      o_max[me] = co_await pe.allreduce_i32(shmem::ReduceOp::Max, in_i[me]);
      f_sum[me] = co_await pe.allreduce_f32(shmem::ReduceOp::Sum, in_f[me]);
      f_min[me] = co_await pe.allreduce_f32(shmem::ReduceOp::Min, in_f[me]);
      f_max[me] = co_await pe.allreduce_f32(shmem::ReduceOp::Max, in_f[me]);
    }(ctx, group, vi, vf, ri_sum, ri_min, ri_max, rf_sum, rf_min, rf_max);
  });
  wg.run();

  for (unsigned p = 0; p < n; ++p) {
    EXPECT_EQ(ri_sum[p], isum) << "PE " << p;
    EXPECT_EQ(ri_min[p], imin) << "PE " << p;
    EXPECT_EQ(ri_max[p], imax) << "PE " << p;
    EXPECT_EQ(rf_sum[p], fsum) << "PE " << p;
    EXPECT_EQ(rf_min[p], fmin) << "PE " << p;
    EXPECT_EQ(rf_max[p], fmax) << "PE " << p;
  }
  EXPECT_TRUE(san.findings().empty()) << dump(san);
  EXPECT_EQ(group->counters().value("shmem.reductions"),
            static_cast<double>(6 * n));
}

TEST(Shmem, BroadcastDeliversRootBlockToEveryPe) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 5);  // non-power-of-two chain
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned n = group->n_pes();
  const unsigned root = 2;
  const std::uint32_t bytes = 32;
  const Addr blk = group->heap().alloc(bytes);

  const auto& map = sys.machine().mem().map();
  std::vector<std::uint32_t> payload;
  for (std::uint32_t w = 0; w < bytes / 4; ++w) payload.push_back(0xBC00 + w);
  sys.write(map.global(group->coord_of(root), blk), std::as_bytes(std::span(payload)));

  wg.load([group, blk, root](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Addr b,
              unsigned r) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      co_await pe.broadcast(r, b, 32);
      if (pe.my_pe() != r) (void)co_await c.read_u32(c.my_global(b));
    }(ctx, group, blk, root);
  });
  wg.run();

  for (unsigned p = 0; p < n; ++p) {
    for (std::uint32_t w = 0; w < bytes / 4; ++w) {
      std::uint32_t got = 0;
      sys.read(map.global(group->coord_of(p), blk + 4 * w),
               std::as_writable_bytes(std::span<std::uint32_t, 1>(&got, 1)));
      EXPECT_EQ(got, payload[w]) << "PE " << p << " word " << w;
    }
  }
  EXPECT_TRUE(san.findings().empty()) << dump(san);
  EXPECT_EQ(group->counters().value("shmem.broadcasts"), 1.0);
}

// ---- sanitizer contract ---------------------------------------------------

/// The seeded misuse: the producer streams a DMA-sized block with
/// put_with_signal, but the consumer reads the landing zone before acquiring
/// on the signal word. The runtime sanitizer must flag the race; the
/// clean twin (wait first) must verify empty.
std::vector<lint::Finding> get_before_signal(bool consumer_waits) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 2);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const std::uint32_t bytes = 512;  // DMA path
  const Addr blk = group->heap().alloc(bytes);
  const Addr sig = group->heap().alloc(4, 4);

  wg.load([group, blk, sig, consumer_waits](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Addr b,
              Addr flag, bool waits) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      if (pe.my_pe() == 0) {
        auto& mem = g->machine().mem();
        for (std::uint32_t off = 0; off < 512; off += 4) {
          mem.write_value<std::uint32_t>(c.my_global(b + off), off, c.coord());
        }
        co_await pe.put_with_signal(1, b, b, 512, flag, 1);
      } else {
        // Late enough that the DMA payload has landed: the defective read
        // is a *race*, not an uninitialised read.
        co_await c.compute(100'000);
        if (waits) co_await pe.wait_signal_ge(flag, 1);
        (void)co_await c.read_u32(c.my_global(b));
      }
    }(ctx, group, blk, sig, consumer_waits);
  });
  wg.run();
  return san.findings();
}

TEST(Shmem, GetBeforeSignalIsARuntimeRace) {
  const auto fs = get_before_signal(/*consumer_waits=*/false);
  std::size_t races = 0;
  for (const auto& f : fs) races += f.pass == std::string("race");
  EXPECT_EQ(races, 1u);
}

TEST(Shmem, WaitSignalGeOrdersTheConsumer) {
  const auto fs = get_before_signal(/*consumer_waits=*/true);
  EXPECT_TRUE(fs.empty());
}

// ---- workloads ------------------------------------------------------------

TEST(ShmemWorkloads, CannonMatchesHostReference) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(1, 1, 2, 2);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const auto plan = shmem::plan_cannon(group->heap(), wg.info(), /*block=*/8,
                                       /*iters=*/2);
  shmem::fill_cannon_inputs(sys.machine(), wg.info(), plan, /*seed=*/7);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::cannon_kernel(ctx, group, plan);
  });
  wg.run();
  EXPECT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 7), "");
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

// A Group counts into its machine's registry whether or not the tracer is
// armed, and whenever it is armed or disarmed.
const char* const kShmemCounters[] = {"shmem.puts", "shmem.gets", "shmem.bytes",
                                      "shmem.barrier_waits"};

enum class TraceStep { None, ArmAfterGroup, DisarmAfterGroup };

/// A 2x2 Cannon on a fresh System; returns each kShmemCounters value.
std::vector<double> cannon_counts(TraceStep step, std::string* csv = nullptr) {
  host::System sys;
  if (step == TraceStep::DisarmAfterGroup) sys.machine().enable_tracing();
  auto wg = sys.open(0, 0, 2, 2);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  if (step == TraceStep::ArmAfterGroup) sys.machine().enable_tracing();
  if (step == TraceStep::DisarmAfterGroup) sys.machine().disable_tracing();
  const auto plan = shmem::plan_cannon(group->heap(), wg.info(), 8, 2);
  shmem::fill_cannon_inputs(sys.machine(), wg.info(), plan, 7);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::cannon_kernel(ctx, group, plan);
  });
  wg.run();
  EXPECT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 7), "");
  if (csv != nullptr) {
    std::ostringstream os;
    trace::write_counters_csv(os, sys.machine().tracer()->counters());
    *csv = os.str();
  }
  std::vector<double> out;
  for (const char* name : kShmemCounters) out.push_back(group->counters().value(name));
  return out;
}

TEST(ShmemCounters, TracingArmedAfterConstructionCountsIntoTheExport) {
  const std::vector<double> ref = cannon_counts(TraceStep::None);
  EXPECT_GT(ref[0], 0.0);
  std::string csv;
  EXPECT_EQ(cannon_counts(TraceStep::ArmAfterGroup, &csv), ref);
  EXPECT_NE(csv.find(util::format("shmem.puts,monotonic,%g", ref[0])), std::string::npos)
      << csv;
}

TEST(ShmemCounters, DisablingTracingKeepsCounting) {
  const std::vector<double> ref = cannon_counts(TraceStep::None);
  EXPECT_EQ(cannon_counts(TraceStep::DisarmAfterGroup), ref);
}

TEST(ShmemWorkloads, CannonOnNonSquareGroupUsesActiveSquare) {
  host::System sys;
  auto wg = sys.open(0, 0, 2, 3);  // p = 2; one idle column barriers along
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const auto plan = shmem::plan_cannon(group->heap(), wg.info(), 4, 1);
  EXPECT_EQ(plan.p, 2u);
  shmem::fill_cannon_inputs(sys.machine(), wg.info(), plan, 11);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::cannon_kernel(ctx, group, plan);
  });
  wg.run();
  EXPECT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 11), "");
}

TEST(ShmemWorkloads, TransposeMatchesHostReference) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(3, 2, 2, 3);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const auto plan =
      shmem::plan_transpose(group->heap(), wg.info(), /*elems=*/5, /*iters=*/2);
  shmem::fill_transpose_inputs(sys.machine(), wg.info(), plan, /*seed=*/42);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::transpose_kernel(ctx, group, plan);
  });
  wg.run();
  EXPECT_EQ(shmem::verify_transpose_output(sys.machine(), wg.info(), plan, 42), "");
  EXPECT_TRUE(san.findings().empty()) << dump(san);
}

// The verifiers must inspect every PE, the last one included: after a
// correct run, corrupt the last element of the last PE's output (a raw,
// hook-invisible store) and expect the mismatch to be named.

/// The word at `offset` in core `c`'s scratchpad, as raw storage.
std::byte* scratch_word(host::System& sys, arch::CoreCoord c, Addr offset) {
  auto& mem = sys.machine().mem();
  return mem.resolve(mem.map().global(c, offset), 4, c).data();
}

TEST(ShmemWorkloads, CannonVerifierNamesTheLastPesCorruptElement) {
  host::System sys;
  auto wg = sys.open(1, 1, 3, 3);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned b = 4;
  const auto plan = shmem::plan_cannon(group->heap(), wg.info(), b, /*iters=*/1);
  shmem::fill_cannon_inputs(sys.machine(), wg.info(), plan, /*seed=*/5);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::cannon_kernel(ctx, group, plan);
  });
  wg.run();
  ASSERT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 5), "");

  const arch::CoreCoord last{3, 3};
  std::byte* word = scratch_word(sys, last, plan.c + 4 * (b * b - 1));
  float want;
  std::memcpy(&want, word, sizeof want);
  const float bad = want + 1.0f;
  std::memcpy(word, &bad, sizeof bad);
  EXPECT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 5),
            util::format("cannon C block of core (3,3) element (3,3): got %g want %g",
                         static_cast<double>(bad), static_cast<double>(want)));
}

TEST(ShmemWorkloads, TransposeVerifierNamesTheLastPesCorruptWord) {
  host::System sys;
  auto wg = sys.open(0, 1, 2, 3);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned elems = 5;
  const auto plan = shmem::plan_transpose(group->heap(), wg.info(), elems, /*iters=*/1);
  shmem::fill_transpose_inputs(sys.machine(), wg.info(), plan, /*seed=*/9);
  wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
    return shmem::transpose_kernel(ctx, group, plan);
  });
  wg.run();
  ASSERT_EQ(shmem::verify_transpose_output(sys.machine(), wg.info(), plan, 9), "");

  // Last PE (index 5, core (1,3)), last slot, last word.
  const std::uint32_t want = shmem::transpose_word(9, 5, 5, elems - 1);
  const std::uint32_t bad = want ^ 1u;
  std::memcpy(scratch_word(sys, {1, 3}, plan.recv + 5 * elems * 4 + 4 * (elems - 1)),
              &bad, sizeof bad);
  EXPECT_EQ(shmem::verify_transpose_output(sys.machine(), wg.info(), plan, 9),
            util::format("transpose recv slot 5 word 4 on core (1,3): got 0x%08x "
                         "want 0x%08x",
                         bad, want));
}

}  // namespace
