// Ablation: latency and bandwidth of the epi-shmem PGAS primitives across
// message size and workgroup shape. For every shape the sweep times
//   * blocking put / get between PE 0 and the farthest group member (the
//     worst-case on-chip distance for that shape), across the direct-store
//     -> DMA crossover (Config.dma_threshold = 256 B),
//   * barrier_all (dissemination, log2(n) rounds of flag generations),
//   * allreduce_i32 sum (binomial up-sweep + broadcast down-sweep),
// each amortised over several repetitions on a fresh machine, so the table
// separates the per-op protocol cost from the per-byte streaming cost --
// the Ross & Richie crossover the runtime's threshold encodes.
//
// Results go to BENCH_shmem.json; the committed copy at the repository root
// is a byte-exact golden (ctest shmem_bench_golden). Every point is replayed
// once on a fresh machine and the run exits non-zero if a cycle count
// diverges.
//
// Usage: abl_shmem [--trace=FILE] [--csv=FILE] [--metrics=FILE] [--no-metrics]

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "shmem/shmem.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace {

using namespace epi;

struct Shape {
  unsigned rows, cols;
};

enum class Prim { Put, Get, Barrier, Allreduce };
constexpr const char* kPrimNames[] = {"put", "get", "barrier", "allreduce"};

/// One measured point: `reps` repetitions of one primitive on a fresh
/// machine; returns total simulated cycles (deterministic). When `keep` is
/// given the System is traced and kept alive for finish_bench.
sim::Cycles run_point(Shape sh, Prim prim, std::uint32_t bytes, unsigned reps,
                      std::unique_ptr<host::System>* keep = nullptr) {
  auto sys_owned = std::make_unique<host::System>();
  host::System& sys = *sys_owned;
  if (keep) sys.machine().enable_tracing();
  auto wg = sys.open(0, 0, sh.rows, sh.cols);
  auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
  const unsigned peer = group->n_pes() - 1;  // farthest member from PE 0
  const arch::Addr src = bytes ? group->heap().alloc(bytes) : 0;
  const arch::Addr dst = bytes ? group->heap().alloc(bytes) : 0;
  if (bytes) {
    // Host-initialise the transfer source so the runs are uninit-free under
    // any sanitizer; contents do not affect timing.
    std::vector<std::uint32_t> fill(bytes / 4, 0x5EED);
    const auto& map = sys.machine().mem().map();
    sys.write(map.global(group->coord_of(0), src), std::as_bytes(std::span(fill)));
    sys.write(map.global(group->coord_of(peer), src), std::as_bytes(std::span(fill)));
  }

  wg.load([group, prim, bytes, reps, peer, src, dst](device::CoreCtx& ctx)
              -> sim::Op<void> {
    return [](device::CoreCtx& c, std::shared_ptr<shmem::Group> g, Prim p,
              std::uint32_t nbytes, unsigned n, unsigned far, arch::Addr s,
              arch::Addr d) -> sim::Op<void> {
      shmem::Pe pe(c, *g);
      switch (p) {
        case Prim::Put:
          if (pe.my_pe() == 0) {
            for (unsigned r = 0; r < n; ++r) co_await pe.put(far, d, s, nbytes);
          }
          break;
        case Prim::Get:
          if (pe.my_pe() == 0) {
            for (unsigned r = 0; r < n; ++r) co_await pe.get(far, d, s, nbytes);
          }
          break;
        case Prim::Barrier:
          for (unsigned r = 0; r < n; ++r) co_await pe.barrier_all();
          break;
        case Prim::Allreduce:
          for (unsigned r = 0; r < n; ++r) {
            (void)co_await pe.allreduce_i32(
                shmem::ReduceOp::Sum, static_cast<std::int32_t>(pe.my_pe()));
          }
          break;
      }
    }(ctx, group, prim, bytes, reps, peer, src, dst);
  });
  wg.run();
  const sim::Cycles total = sys.machine().engine().now();
  if (keep) *keep = std::move(sys_owned);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      util::BenchArgs::parse(argc, argv, "abl_shmem", "BENCH_shmem.json");
  if (args.reject_positional()) return 2;
  constexpr unsigned reps = 8;
  const std::vector<Shape> shapes = {{1, 2}, {2, 2}, {4, 4}, {8, 8}};
  const std::vector<std::uint32_t> sizes = {16, 64, 256, 1024, 4096};

  std::cout << "epi-shmem primitive sweep: " << reps
            << " reps/point, PE 0 <-> farthest member per shape\n\n";
  util::Table t({"shape", "bytes", "put cyc/op", "put B/cyc", "get cyc/op",
                 "get B/cyc", "barrier cyc", "allreduce cyc"});

  util::BenchReport report("abl_shmem");
  bool ok = true;
  std::unique_ptr<host::System> traced_sys;  // kept alive for finish_bench
  // Every point runs twice from scratch; the replay must reproduce the
  // same cycle count.
  const auto measure = [&](Shape sh, Prim prim, std::uint32_t bytes,
                           std::unique_ptr<host::System>* keep = nullptr) {
    const sim::Cycles cycles = run_point(sh, prim, bytes, reps, keep);
    if (run_point(sh, prim, bytes, reps) != cycles) {
      std::fprintf(stderr,
                   "abl_shmem: FAIL: %ux%u %s of %u B diverged on replay\n",
                   sh.rows, sh.cols, kPrimNames[static_cast<int>(prim)], bytes);
      ok = false;
    }
    return cycles;
  };

  for (const Shape& sh : shapes) {
    const std::string sp =
        "s" + std::to_string(sh.rows) + "x" + std::to_string(sh.cols) + "_";
    // Collectives: one row per shape (message size does not apply).
    const sim::Cycles bar = measure(sh, Prim::Barrier, 0);
    // Attach the tracer to the largest shape's reduction: one timeline of
    // the deepest tree instead of one file per point.
    const bool trace_this = args.tracing() && &sh == &shapes.back();
    const sim::Cycles red =
        measure(sh, Prim::Allreduce, 0, trace_this ? &traced_sys : nullptr);
    const double bar_per = static_cast<double>(bar) / reps;
    const double red_per = static_cast<double>(red) / reps;
    report.metric(sp + "barrier_cycles_per_op", bar_per);
    report.metric(sp + "allreduce_cycles_per_op", red_per);

    for (const std::uint32_t bytes : sizes) {
      const sim::Cycles put = measure(sh, Prim::Put, bytes);
      const sim::Cycles get = measure(sh, Prim::Get, bytes);
      const double put_per = static_cast<double>(put) / reps;
      const double get_per = static_cast<double>(get) / reps;
      const double put_bw = static_cast<double>(bytes) * reps / put;
      const double get_bw = static_cast<double>(bytes) * reps / get;
      const std::string pfx = sp + "b" + std::to_string(bytes) + "_";
      report.metric(pfx + "put_cycles_per_op", put_per);
      report.metric(pfx + "put_bytes_per_cycle", put_bw);
      report.metric(pfx + "get_cycles_per_op", get_per);
      report.metric(pfx + "get_bytes_per_cycle", get_bw);
      t.add_row({std::to_string(sh.rows) + "x" + std::to_string(sh.cols),
                 std::to_string(bytes), util::fmt(put_per, 1),
                 util::fmt(put_bw, 3), util::fmt(get_per, 1),
                 util::fmt(get_bw, 3), util::fmt(bar_per, 1),
                 util::fmt(red_per, 1)});
    }
  }
  t.print(std::cout);
  std::cout << "\n(put/get between PE 0 and the farthest group member; "
               "crossover to DMA above 256 B; cycles at 600 MHz)\n";

  util::finish_bench(args, traced_sys ? traced_sys->machine().tracer() : nullptr,
                     report);

  return ok ? 0 : 1;
}
