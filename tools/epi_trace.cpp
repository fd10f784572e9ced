// epi_trace: run a canned scenario on the machine model with full tracing
// and export the result -- the quickest way to get a Perfetto timeline out
// of the simulator without writing a bench.
//
// Usage: epi_trace <scenario> [options]
//
// Scenarios:
//   elink4           2x2 eLink write contention (Table II shape)
//   elink64          8x8 eLink write contention (Table III starvation)
//   dma              DMA point-to-point transfer (0,0) -> (0,3)
//   direct           CPU direct-write transfer (0,0) -> (0,3)
//   matmul-offchip   small off-chip paged matmul (4x4 group, 16x16 blocks)
//   stencil64        8x8 five-point stencil with boundary exchange
//
// Options:
//   --trace=FILE   Perfetto/Chrome JSON output (default epi_trace.json)
//   --csv=FILE     counter registry as CSV
//   --top=N        rows in the terminal summary tables, in [1, 10000]
//                  (default 8)
//   --profile      print per-core cycle attribution
//   --window=S     simulated seconds for the elink scenarios, in (0, 10]
//                  (default 0.02)
//   --bytes=N      message/block size in [1, 8192] (default 2048)
//   --reps=N       repetitions for dma/direct, in [1, 100000] (default 16)
//
// Numeric values are parsed strictly (src/util/cli.hpp): a malformed, signed
// or out-of-range value exits with status 2 and names the flag.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "core/matmul.hpp"
#include "core/microbench.hpp"
#include "core/stencil.hpp"
#include "host/system.hpp"
#include "trace/export.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"

namespace {

using namespace epi;

struct Options {
  std::string scenario;
  std::string trace_path = "epi_trace.json";
  std::string csv_path;
  unsigned top = 8;
  bool profile = false;
  double window = 0.02;
  std::uint32_t bytes = 2048;
  unsigned reps = 16;
};

int usage() {
  std::fprintf(stderr,
               "usage: epi_trace <elink4|elink64|dma|direct|matmul-offchip|stencil64>\n"
               "                 [--trace=FILE] [--csv=FILE] [--top=N] [--profile]\n"
               "                 [--window=S] [--bytes=N] [--reps=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (cli::value_flag(arg, "--trace", opt.trace_path) ||
          cli::value_flag(arg, "--csv", opt.csv_path) ||
          cli::uint_flag(arg, "--top", opt.top, 1, 10'000) ||
          cli::seconds_flag(arg, "--window", opt.window) ||
          cli::uint_flag(arg, "--bytes", opt.bytes, 1, 8192) ||
          cli::uint_flag(arg, "--reps", opt.reps, 1, 100'000)) {
        continue;
      }
      if (arg == "--profile") {
        opt.profile = true;
      } else if (arg.substr(0, 2) == "--") {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        return usage();
      } else if (opt.scenario.empty()) {
        opt.scenario = std::string(arg);
      } else {
        return usage();
      }
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "epi_trace: %s\n", e.what());
    return 2;
  }
  if (opt.scenario.empty()) return usage();

  host::System sys;
  trace::Tracer& tracer = sys.machine().enable_tracing();

  if (opt.scenario == "elink4") {
    core::measure_elink_contention(sys, 2, 2, opt.bytes, opt.window);
  } else if (opt.scenario == "elink64") {
    core::measure_elink_contention(sys, 8, 8, opt.bytes, opt.window);
  } else if (opt.scenario == "dma") {
    core::measure_dma(sys, {0, 0}, {0, 3}, opt.bytes, opt.reps);
  } else if (opt.scenario == "direct") {
    core::measure_direct_write(sys, {0, 0}, {0, 3}, opt.bytes, opt.reps);
  } else if (opt.scenario == "matmul-offchip") {
    core::run_matmul_offchip(sys, 128, 4, 16, core::Codegen::TunedAsm, 42, false);
  } else if (opt.scenario == "stencil64") {
    core::StencilConfig cfg;
    cfg.rows = 20;
    cfg.cols = 20;
    cfg.iters = 5;
    cfg.communicate = true;
    core::run_stencil_experiment(sys, 8, 8, cfg, 42, false);
  } else {
    std::fprintf(stderr, "unknown scenario: %s\n", opt.scenario.c_str());
    return usage();
  }

  const sim::Cycles end = sys.engine().now();
  trace::ProfileReport profile;
  const trace::ProfileReport* profile_ptr = nullptr;
  if (opt.profile) {
    profile = trace::attribute(tracer, 0, end);
    profile_ptr = &profile;
  }

  std::cout << "Scenario " << opt.scenario << ": " << end << " cycles simulated, "
            << tracer.events().size() << " trace events on " << tracer.tracks().size()
            << " tracks\n\n";
  trace::write_summary(std::cout, tracer, profile_ptr, opt.top);

  if (!opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
      return 1;
    }
    trace::write_chrome_trace(os, tracer);
    std::cout << "\nWrote Perfetto trace to " << opt.trace_path
              << " (open at ui.perfetto.dev; ts is in cycles)\n";
  }
  if (!opt.csv_path.empty()) {
    std::ofstream os(opt.csv_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    trace::write_counters_csv(os, tracer.counters());
  }
  return 0;
}
