// Table II: four eCores (a 2x2 group at the origin) continuously writing
// 2 KB blocks to external DRAM; per-node iteration counts and eLink share.
// Paper: 0.41 / 0.33 / 0.17 / 0.08 -- highly position-dependent.
//
// Usage: tab02_elink4 [window_seconds] [--trace=FILE] [--csv=FILE]
//                     [--metrics=FILE]
// (default window 0.5, at most 10; paper used 2.0)

#include <iostream>

#include "bench_report.hpp"
#include "core/microbench.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  const auto args = bench::BenchArgs::parse(argc, argv, "tab02_elink4");
  const auto seconds = args.seconds("window_seconds", 0.5);
  if (!seconds) return 2;
  const double window = *seconds;
  std::cout << "Table II: 4 mesh nodes writing 2KB blocks to DRAM over "
            << util::fmt(window, 2) << " s (simulated)\n\n";
  host::System sys;
  if (args.tracing()) sys.machine().enable_tracing();
  const auto res = core::measure_elink_contention(sys, 2, 2, 2048, window);
  util::Table t({"Mesh node", "Iterations", "Utilization"});
  for (const auto& n : res.nodes) {
    t.add_row({std::to_string(n.coord.row) + "," + std::to_string(n.coord.col),
               std::to_string(n.iterations), util::fmt(n.utilization, 2)});
  }
  t.print(std::cout);
  std::cout << "\nAggregate: " << util::fmt(res.total_mb_per_s, 1)
            << " MB/s (paper cap: 150 MB/s, one quarter of the 600 MB/s eLink).\n"
            << "Paper shares: 0,0=0.41  0,1=0.33  1,0=0.17  1,1=0.08\n";

  bench::BenchReport report("tab02_elink4");
  report.metric("window_seconds", res.window_seconds);
  report.metric("aggregate_mb_per_s", res.total_mb_per_s);
  for (const auto& n : res.nodes) {
    report.metric("iterations_" + std::to_string(n.coord.row) + "_" +
                      std::to_string(n.coord.col),
                  static_cast<double>(n.iterations));
  }
  bench::finish_bench(args, &sys, report, /*profile=*/true);
  return 0;
}
