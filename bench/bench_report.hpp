#pragma once
// Shared command-line handling and machine-readable reporting for the bench
// binaries.
//
// Every instrumented bench accepts, in addition to its positional arguments:
//   --trace=FILE     enable epi-trace and write a Chrome/Perfetto trace
//   --csv=FILE       also dump the counter registry as CSV
//   --metrics=FILE   write the metrics file
//
// A bench writes no file that no flag names. The metrics file carries
// per-bench GFLOPS/bandwidth figures plus headline counters, so results are
// compared as data instead of eyeballed terminal tables; the golden sweeps'
// committed `BENCH_<x>.json` files are such metrics files.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace epi::host {
class System;
}  // namespace epi::host

namespace epi::trace {
class Counters;
}  // namespace epi::trace

namespace epi::bench {

struct BenchArgs {
  std::string bench;         // bench name (e.g. "tab03_elink64")
  std::string trace_path;    // empty = tracing off
  std::string csv_path;      // empty = no CSV dump
  std::string metrics_path;  // empty = no metrics file
  std::vector<std::string> positional;

  /// Parse argv, stripping the flags above; anything else stays positional.
  [[nodiscard]] static BenchArgs parse(int argc, char** argv, std::string bench);

  [[nodiscard]] bool tracing() const noexcept { return !trace_path.empty(); }
  /// The first positional argument as simulated seconds (cli::seconds), or
  /// `fallback` when there is none. A bad value prints a usage error naming
  /// `name` and yields nullopt (the caller exits 2).
  [[nodiscard]] std::optional<double> seconds(std::string_view name,
                                              double fallback) const;
};

/// Accumulates named metrics and writes them as deterministic JSON.
class BenchReport {
public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void metric(std::string name, double value);
  /// The value recorded under `name`; throws std::out_of_range if none is.
  [[nodiscard]] double value(std::string_view name) const;
  /// Fold in every machine-wide counter (names containing '@' are per-entity
  /// detail and stay out of the headline report).
  void add_counters(const trace::Counters& counters);

  /// Write `{"bench": ..., "metrics": {...}}` to `path` (insertion order).
  void write(const std::string& path) const;

private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Standard tail of an instrumented bench. When `traced` is a traced
/// machine, write the Perfetto trace / counters CSV named in `args`, fold
/// headline counters into `report`, and print the terminal summary (with
/// per-core attribution over the whole run when `profile` is set); then
/// write the metrics file.
void finish_bench(const BenchArgs& args, host::System* traced, BenchReport& report,
                  bool profile = false);

}  // namespace epi::bench
