// Figure 6: 64-core stencil performance per per-core grid shape, with and
// without boundary communication. Paper: peak 72.83 GFLOPS without
// communication (80x20 per core); 63.6 GFLOPS (82.8% of chip peak) with
// communication -- a ~9 GFLOPS penalty for not overlapping communication
// with computation.
//
// Usage: fig06_stencil_64core [--trace=FILE] [--csv=FILE] [--metrics=FILE]
// Tracing instruments the with-communication run of the paper's peak shape
// (80x20), so the boundary-exchange phases are visible per core.

#include <iostream>
#include <optional>

#include "bench_report.hpp"
#include "core/stencil.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  const auto args = bench::BenchArgs::parse(argc, argv, "fig06_stencil_64core");
  std::cout << "Figure 6: 64-core stencil performance, with vs without communication\n"
               "(50 iterations, per-core grid shapes, 8x8 workgroup)\n\n";
  const std::pair<unsigned, unsigned> shapes[] = {
      {20, 20}, {40, 20}, {20, 40}, {60, 20}, {80, 20}, {20, 80}, {40, 40}, {60, 60},
  };
  bench::BenchReport report("fig06_stencil_64core");
  util::Table t({"Per-core grid", "GFLOPS (no comm)", "GFLOPS (with comm)", "Comm penalty %"});
  std::optional<host::System> traced_sys;
  for (auto [r, c] : shapes) {
    core::StencilConfig cfg;
    cfg.rows = r;
    cfg.cols = c;
    cfg.iters = 50;
    cfg.communicate = false;
    host::System sys_nc;
    const auto nc = core::run_stencil_experiment(sys_nc, 8, 8, cfg, 42, false);
    cfg.communicate = true;
    const bool traced = args.tracing() && r == 80 && c == 20;
    host::System local_sys;
    host::System& sys_c = traced ? traced_sys.emplace() : local_sys;
    if (traced) sys_c.machine().enable_tracing();
    const auto wc = core::run_stencil_experiment(sys_c, 8, 8, cfg, 42, false);
    t.add_row({std::to_string(r) + " x " + std::to_string(c),
               util::fmt(nc.result.gflops, 2), util::fmt(wc.result.gflops, 2),
               util::fmt(100.0 * (1.0 - wc.result.gflops / nc.result.gflops), 1)});
    std::string suffix = "_";
    suffix += std::to_string(r);
    suffix += 'x';
    suffix += std::to_string(c);
    report.metric("gflops_nocomm" + suffix, nc.result.gflops);
    report.metric("gflops_comm" + suffix, wc.result.gflops);
  }
  t.print(std::cout);
  std::cout << "\nPaper: 72.83 GFLOPS no-comm peak at 80x20/core; 63.6 GFLOPS (82.8% of\n"
               "76.8 peak) with communication.\n";

  bench::finish_bench(args, traced_sys ? &*traced_sys : nullptr, report,
                      /*profile=*/true);
  return 0;
}
