// epi-fault: author deterministic fault plans.
//
// A fault plan (src/fault/plan.hpp) is data: a list of scheduled hardware
// faults plus the seed that drives every random choice made while applying
// them. This tool writes seeded chaos plans; `epi_serve --plan=FILE` serves
// a workload under one (single chip, or `--chips=RxC` for a cluster plan).
//
// Usage:
//   epi_fault gen [options]          generate a chaos plan (text to stdout)
//     --chaos-seed=S                 plan seed                    (default 1)
//     --kills=N --stalls=N           core faults                  (default 1/1)
//     --links=N                      directed mesh-link outages   (default 4)
//     --elink-outages=N              transient whole-eLink stalls (default 1)
//     --elink-flips=N --mem-flips=N  bit corruptions              (default 1/1)
//     --horizon=C                    faults land in [0, C)        (default 1000000)
//     --out=FILE                     write the plan to FILE
//     --chips=RxC                    emit a cluster plan (`chips RxC` header;
//                                    machine faults get chip= scopes)
//     --chip-crashes=N --chip-stalls=N   chip-scoped faults       (default 0/0)
//     --xmesh=N                      bridge-link outages (some flapping)
//     --notice-drops=N --notice-flips=N  completion-notice faults (default 0/0)
//
// Example:
//   epi_fault gen --chaos-seed=11 --out=chaos.plan
//   epi_serve --plan=chaos.plan --jobs=40 --seed=7 --log
//
// Numeric values are parsed strictly (src/util/cli.hpp).
//
// Exit status: 0 on success, 1 if the plan cannot be written, 2 on a bad
// command line.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "fault/plan.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace epi;

  bool gen = false;
  std::string out_path;
  fault::ChaosConfig cc;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.core_stalls = 1;
  cc.link_faults = 4;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 1;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "gen") { gen = true; continue; }
      if (cli::value_flag(arg, "--out", out_path) ||
          cli::uint_flag(arg, "--chaos-seed", cc.seed, 0, cli::kMaxSeed) ||
          cli::uint_flag(arg, "--kills", cc.core_kills, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--stalls", cc.core_stalls, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--links", cc.link_faults, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--elink-outages", cc.elink_outages, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--elink-flips", cc.elink_flips, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--mem-flips", cc.mem_flips, 0, cli::kMaxFaults) ||
          cli::grid_flag(arg, "--chips", cc.chip_rows, cc.chip_cols,
                         cli::kMaxChipExtent) ||
          cli::uint_flag(arg, "--chip-crashes", cc.chip_crashes, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--chip-stalls", cc.chip_stalls, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--xmesh", cc.xmesh_faults, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--notice-drops", cc.notice_drops, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--notice-flips", cc.notice_flips, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--horizon", cc.horizon, 0, cli::kMaxCycles)) {
        continue;
      }
      throw cli::UsageError("unknown argument '" + std::string(arg) +
                            "' (see the header of tools/epi_fault.cpp)");
    }
    if (!gen) throw cli::UsageError("expected the verb 'gen'");
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "epi_fault: %s\n", e.what());
    return 2;
  }

  try {
    const std::string text = fault::save(fault::generate(cc));
    if (out_path.empty()) {
      std::cout << text;
    } else {
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write plan: " + out_path);
      os << text;
      std::cout << "wrote " << out_path << "\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_fault: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
