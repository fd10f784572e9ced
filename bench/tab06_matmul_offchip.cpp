// Table VI: off-chip matmul for matrices too large for the chip: 512x512
// and 1024x1024 with 32x32 per-core blocks, 1536x1536 with 24x24 blocks.
// Paper: performance collapses to ~8-11% of peak; 86-90% of the time goes
// to block DMA transfers over the 150 MB/s shared-memory path.
//
// Usage: tab06_matmul_offchip [--trace=FILE] [--csv=FILE] [--metrics=FILE]
// Tracing instruments the 512x512 case (each case runs on a fresh System)
// and prints the epi-trace per-core cycle attribution, whose comm+DMA-wait
// share is the profiler's view of the paper's ~87% transfer fraction.

#include <iostream>
#include <optional>

#include "bench_report.hpp"
#include "core/matmul.hpp"
#include "trace/profile.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  const auto args = bench::BenchArgs::parse(argc, argv, "tab06_matmul_offchip");
  std::cout << "Table VI: Floating-point performance for larger (off-chip) matrices\n"
               "(8x8 workgroup; paging over the eLink)\n\n";
  struct Case {
    unsigned n, block;
  };
  const Case cases[] = {{512, 32}, {1024, 32}, {1536, 24}};
  bench::BenchReport report("tab06_matmul_offchip");
  util::Table t({"Matrix C", "Per-core block", "GFLOPS", "% of peak", "% computation",
                 "% shared-mem transfers"});
  std::optional<host::System> traced_sys;
  for (const auto& c : cases) {
    const bool traced = args.tracing() && c.n == 512;
    host::System local_sys;
    host::System& sys = traced ? traced_sys.emplace() : local_sys;
    if (traced) sys.machine().enable_tracing();
    const auto r =
        core::run_matmul_offchip(sys, c.n, 8, c.block, core::Codegen::TunedAsm, 42, false);
    t.add_row({std::to_string(c.n) + " x " + std::to_string(c.n),
               std::to_string(c.block) + " x " + std::to_string(c.block),
               util::fmt(r.gflops, 2), util::fmt(100.0 * r.gflops / 76.8, 1),
               util::fmt(100.0 * r.compute_fraction, 1),
               util::fmt(100.0 * r.transfer_fraction, 1)});
    std::string suffix = "_";
    suffix += std::to_string(c.n);
    report.metric("gflops" + suffix, r.gflops);
    report.metric("compute_fraction" + suffix, r.compute_fraction);
    report.metric("transfer_fraction" + suffix, r.transfer_fraction);
  }
  t.print(std::cout);
  std::cout << "\nPaper: 512=8.32 GF (10.8%, 12.8/87.2), 1024=8.52 GF (11.1%, 13.1/86.9),\n"
               "1536=6.34 GF (8.2%, 10.9/89.1).\n";

  if (traced_sys) {
    const trace::Tracer* tracer = traced_sys->machine().tracer();
    const auto profile = trace::attribute(*tracer, 0, traced_sys->engine().now());
    std::cout << "\nProfiler attribution (512x512 run): comm+dma-wait = "
              << util::fmt(100.0 * profile.comm_dma_fraction(), 1)
              << "% of core cycles (paper Table VI: ~87% shared-memory transfers)\n";
    report.metric("profile_comm_dma_fraction_512", profile.comm_dma_fraction());
  }
  bench::finish_bench(args, traced_sys ? &*traced_sys : nullptr, report,
                      /*profile=*/true);
  return 0;
}
