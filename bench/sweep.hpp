#pragma once
// The one harness of the golden sweeps (abl_sched, abl_faults,
// abl_cluster_faults, abl_shmem, abl_dag). A sweep lists its points; a
// point's run adds its table rows and metrics and returns its transcript
// (sched::transcript for a serving run). The harness parses the BenchArgs
// flags (a positional argument exits 2), runs every point twice on fresh
// machines and exits 1 naming any point whose replay transcript differs,
// prints the table, writes the metrics file when --metrics names one
// (scripts/bench.sh names BENCH_<x>.json) and traces the one point the sweep
// names.
//
// Adding a golden sweep takes one abl_<x>.cpp that calls run_sweep, plus its
// name in bench/CMakeLists.txt and scripts/bench.sh.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "host/system.hpp"

namespace epi::bench {

/// One run of one point. The harness keeps the first run's rows and metrics
/// and drops the replay's.
struct Run {
  /// A fresh machine, replacing the previous one this run handed out. In a
  /// traced run the first `traceable` machine is traced and kept for export.
  host::System& machine(bool traceable = true);
  void row(std::vector<std::string> cells) { rows.push_back(std::move(cells)); }
  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }

  bool trace = false;
  std::unique_ptr<host::System> traced;
  std::unique_ptr<host::System> latest;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::pair<std::string, double>> metrics;
};

struct Point {
  std::string label;                     // named when the replay diverges
  std::function<std::string(Run&)> run;  // returns the point's transcript
};

struct Sweep {
  std::string bench;  // binary name, abl_<x>
  std::string title;  // printed above the table
  std::vector<std::string> columns;
  std::string note;  // printed below the table
  std::vector<Point> points;
  std::string traced;  // label of the point --trace records
  /// Optional claims over the finished metrics: prints each failure and
  /// returns false if any fails (the sweep then exits 1).
  std::function<bool(const BenchReport&)> check;
};

/// Run `sweep` under the command line in argv; returns the exit status.
[[nodiscard]] int run_sweep(const Sweep& sweep, int argc, char** argv);

}  // namespace epi::bench
