// Ablation: latency and bandwidth of the epi-shmem PGAS primitives across
// message size and workgroup shape. For every shape the sweep times
//   * blocking put / get between PE 0 and the farthest group member (the
//     worst-case on-chip distance for that shape), across the direct-store
//     -> DMA crossover (shmem::kDmaThreshold = 256 B),
//   * barrier_all (dissemination, log2(n) rounds of flag generations),
//   * allreduce_i32 sum (binomial up-sweep + broadcast down-sweep),
// each amortised over several repetitions on a fresh machine, so the table
// separates the per-op protocol cost from the per-byte streaming cost --
// the Ross & Richie crossover the runtime's threshold encodes.
//
// --metrics=FILE writes the results; the committed BENCH_shmem.json is that
// file, a byte-exact golden (ctest shmem_bench_golden; scripts/bench.sh
// regenerates it). bench/sweep.hpp replays every shape.
//
// Usage: abl_shmem [--trace=FILE] [--csv=FILE] [--metrics=FILE]

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "shmem/shmem.hpp"
#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace epi;

struct Shape {
  unsigned rows, cols;
};

enum class Prim { Put, Get, Barrier, Allreduce };

constexpr unsigned kReps = 8;
constexpr std::uint32_t kSizes[] = {16, 64, 256, 1024, 4096};

/// One measurement: `kReps` repetitions of one primitive on `sys`, a fresh
/// machine; returns total simulated cycles (deterministic).
sim::Cycles measure(host::System& sys, Shape sh, Prim prim, std::uint32_t bytes) {
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

  wg.load([group, prim, bytes, peer, src, dst](device::CoreCtx& ctx)
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
    }(ctx, group, prim, bytes, kReps, peer, src, dst);
  });
  wg.run();
  return sys.machine().engine().now();
}

/// One shape: barrier and allreduce once, put and get at every size, each
/// on a fresh machine. The transcript is the cycle count of every
/// measurement in order.
std::string run_shape(Shape sh, bench::Run& r) {
  std::string transcript;
  const auto timed = [&](Prim prim, std::uint32_t bytes) {
    // The allreduce machine is the one traced: one timeline of the deepest
    // reduction tree instead of one file per measurement.
    const sim::Cycles cycles =
        measure(r.machine(prim == Prim::Allreduce), sh, prim, bytes);
    transcript += std::to_string(cycles) + "\n";
    return cycles;
  };
  const std::string sp =
      "s" + std::to_string(sh.rows) + "x" + std::to_string(sh.cols) + "_";
  // Collectives: one figure per shape (message size does not apply).
  const double bar_per = static_cast<double>(timed(Prim::Barrier, 0)) / kReps;
  const double red_per = static_cast<double>(timed(Prim::Allreduce, 0)) / kReps;
  r.metric(sp + "barrier_cycles_per_op", bar_per);
  r.metric(sp + "allreduce_cycles_per_op", red_per);

  for (const std::uint32_t bytes : kSizes) {
    const sim::Cycles put = timed(Prim::Put, bytes);
    const sim::Cycles get = timed(Prim::Get, bytes);
    const double put_per = static_cast<double>(put) / kReps;
    const double get_per = static_cast<double>(get) / kReps;
    const double put_bw = static_cast<double>(bytes) * kReps / put;
    const double get_bw = static_cast<double>(bytes) * kReps / get;
    const std::string pfx = sp + "b" + std::to_string(bytes) + "_";
    r.metric(pfx + "put_cycles_per_op", put_per);
    r.metric(pfx + "put_bytes_per_cycle", put_bw);
    r.metric(pfx + "get_cycles_per_op", get_per);
    r.metric(pfx + "get_bytes_per_cycle", get_bw);
    r.row({std::to_string(sh.rows) + "x" + std::to_string(sh.cols),
           std::to_string(bytes), util::fmt(put_per, 1), util::fmt(put_bw, 3),
           util::fmt(get_per, 1), util::fmt(get_bw, 3), util::fmt(bar_per, 1),
           util::fmt(red_per, 1)});
  }
  return transcript;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep s;
  s.bench = "abl_shmem";
  s.title = "epi-shmem primitive sweep: " + std::to_string(kReps) +
            " reps/point, PE 0 <-> farthest member per shape";
  s.columns = {"shape", "bytes", "put cyc/op", "put B/cyc", "get cyc/op",
               "get B/cyc", "barrier cyc", "allreduce cyc"};
  s.note = "(put/get between PE 0 and the farthest group member; "
           "crossover to DMA above 256 B; cycles at 600 MHz)";
  for (const Shape sh : {Shape{1, 2}, Shape{2, 2}, Shape{4, 4}, Shape{8, 8}}) {
    s.points.push_back(
        {"shape " + std::to_string(sh.rows) + "x" + std::to_string(sh.cols),
         [sh](bench::Run& r) { return run_shape(sh, r); }});
  }
  // The largest shape's reduction is the traced measurement.
  s.traced = s.points.back().label;
  return bench::run_sweep(s, argc, argv);
}
