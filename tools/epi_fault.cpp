// epi-fault: author, replay and self-check deterministic fault plans.
//
// A fault plan (src/fault/plan.hpp) is data: a list of scheduled hardware
// faults plus the seed that drives every random choice made while applying
// them. This tool generates seeded chaos plans, replays a serving workload
// under a plan, and carries the two self-checks the CI runs:
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
//   epi_fault run --plan=FILE [options]   serve a workload under the plan
//     --jobs=N --seed=S --interarrival=C  traffic (defaults 40 / 7 / 30000)
//     --watchdog=C                        silence budget (default 400000)
//     --log                               print decision + injection logs
//
//   epi_fault --selftest       plan round-trip, same-seed byte-identity,
//                              parser error reporting, and the empty-plan
//                              equivalence guarantee
//   epi_fault --chaos-smoke    seeded chaos serving run (core kill, link
//                              faults, eLink corruption): must complete,
//                              quarantine the dead core, validate surviving
//                              results, and replay byte-identically
//   epi_fault --chaos-smoke --chips=RxC
//                              cluster chaos smoke: an RxC chip grid served
//                              under chip crashes/stalls, bridge-link
//                              outages and notice faults; every job must
//                              reach a verdict (no wedged graphs), orphaned
//                              forwards must be re-homed, and a replay of
//                              the same configuration must produce a
//                              byte-identical cluster report
//
// Numeric values are parsed strictly (tools/cli.hpp).
//
// Exit status: 0 on success / all checks pass, 1 otherwise, 2 on a bad
// command line.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "cli.hpp"

namespace {

using namespace epi;

using cli::value_flag;

struct ServeResult {
  std::string report;
  std::vector<std::string> decision_log;
  std::vector<std::string> fault_log;
  std::vector<std::string> injections;
  unsigned completed = 0, failed = 0, unresolved = 0;
  unsigned quarantined = 0;
};

/// One serving run of a generated workload, optionally under a fault plan.
/// `arm_empty` attaches an injector with an empty plan (for the equivalence
/// check); otherwise the injector is attached only when the plan has events.
ServeResult serve(const fault::FaultPlan& plan, bool arm, unsigned jobs,
                  std::uint64_t traffic_seed, sim::Cycles interarrival,
                  sim::Cycles watchdog) {
  host::System sys;
  if (arm) sys.machine().enable_faults(plan);

  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = traffic_seed;
  tc.mean_interarrival = interarrival;

  sched::SchedConfig cfg;
  cfg.watchdog_cycles = watchdog;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  ServeResult out;
  out.report = sched::render_report(sc);
  out.decision_log = sc.event_log();
  for (const auto& r : sc.fault_log()) out.fault_log.push_back(fault::to_line(r));
  if (auto* inj = sys.machine().faults()) out.injections = inj->injections();
  for (const auto& rec : sc.records()) {
    if (rec.verdict == sched::Verdict::Completed) ++out.completed;
    else if (rec.verdict == sched::Verdict::Failed) ++out.failed;
    else if (rec.verdict == sched::Verdict::Pending) ++out.unresolved;
  }
  out.quarantined = sc.allocator().quarantined_cores();
  return out;
}

int check(bool ok, const char* what, int& failures) {
  std::printf("%-58s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++failures;
  return failures;
}

/// Expect `parse` of `text` to throw a FaultError whose message starts with
/// "spec:<line>:".
bool parse_fails_at(const std::string& text, unsigned line) {
  std::istringstream in(text);
  try {
    (void)fault::parse(in, "spec");
    return false;
  } catch (const fault::FaultError& e) {
    const std::string want = "spec:" + std::to_string(line) + ":";
    return std::string_view(e.what()).substr(0, want.size()) == want;
  }
}

int selftest() {
  int failures = 0;

  // Same seed, same plan -- byte-identical text; a different seed moves the
  // random placements.
  fault::ChaosConfig cc;
  cc.seed = 7;
  cc.dims = {8, 8};
  cc.core_kills = 2;
  cc.core_stalls = 2;
  cc.link_faults = 6;
  cc.elink_outages = 2;
  cc.elink_flips = 2;
  cc.mem_flips = 2;
  const std::string a = fault::save(fault::generate(cc));
  const std::string b = fault::save(fault::generate(cc));
  check(a == b, "generate(): same seed is byte-identical", failures);
  cc.seed = 8;
  check(fault::save(fault::generate(cc)) != a, "generate(): seed moves the plan",
        failures);

  // Text round-trip: parse(save(p)) re-saves to the same bytes.
  std::istringstream in(a);
  const fault::FaultPlan back = fault::parse(in, "roundtrip");
  check(fault::save(back) == a, "save/parse round-trip", failures);

  // Parser rejects malformed input with file:line: messages.
  check(parse_fails_at("kill core=2,3\n", 1), "parse: kill without at= rejected",
        failures);
  check(parse_fails_at("seed 5\nfrob core=1,1 at=10\n", 2),
        "parse: unknown directive names its line", failures);
  check(parse_fails_at("link router=4 dir=east at=5 for=0\n", 1),
        "parse: router without row,col rejected", failures);
  check(parse_fails_at("mem-flip region=attic at=0 for=0 count=1\n", 1),
        "parse: bad region rejected", failures);
  check(parse_fails_at("seed banana\n", 1), "parse: non-numeric seed rejected",
        failures);

  // Cluster grammar: a generated cluster plan round-trips, and the parser
  // rejects the chip-scoped mistakes with file:line: diagnostics.
  fault::ChaosConfig cl;
  cl.seed = 5;
  cl.dims = {8, 8};
  cl.chip_rows = 2;
  cl.chip_cols = 2;
  cl.core_kills = 1;  // chip-tagged machine fault
  cl.chip_crashes = 1;
  cl.chip_stalls = 1;
  cl.xmesh_faults = 2;
  cl.notice_drops = 1;
  cl.notice_flips = 1;
  const std::string ct = fault::save(fault::generate(cl));
  std::istringstream cin2(ct);
  check(fault::save(fault::parse(cin2, "cluster")) == ct,
        "cluster plan: save/parse round-trip", failures);
  check(parse_fails_at("chips 2x2\n"
                       "chip-crash chip=0,0 at=10 id=3\n"
                       "chip-stall chip=0,1 at=20 for=50 id=3\n",
                       3),
        "parse: duplicate fault id rejected", failures);
  check(parse_fails_at("chips 2x2\nchip-crash chip=2,0 at=10\n", 2),
        "parse: out-of-range chip coordinate rejected", failures);
  check(parse_fails_at("chips 2x2\nxmesh from=0,1 to=3,3 at=5 for=100\n", 2),
        "parse: out-of-range xmesh endpoint rejected", failures);
  check(parse_fails_at("chips 2x2\nxmesh from=0,0 to=0,0 at=5 for=100\n", 2),
        "parse: xmesh self-link rejected", failures);
  check(parse_fails_at("chip-stall chip=0,0 at=5 for=100\n", 1),
        "parse: chip fault without a chips directive rejected", failures);
  check(parse_fails_at("seed 1\nchips 2x2\nchips 2x2\n", 3),
        "parse: duplicate chips directive rejected", failures);

  // Empty-plan equivalence: arming an injector with no events must leave a
  // serving run byte-identical to one with no injector at all.
  const fault::FaultPlan empty;
  const ServeResult bare = serve(empty, false, 24, 3, 30'000, 0);
  const ServeResult armed = serve(empty, true, 24, 3, 30'000, 0);
  check(bare.report == armed.report, "empty plan: reports byte-identical",
        failures);
  check(bare.decision_log == armed.decision_log,
        "empty plan: decision logs byte-identical", failures);
  check(armed.fault_log.empty() && armed.injections.empty(),
        "empty plan: nothing detected, nothing injected", failures);

  std::printf("\nselftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int chaos_smoke() {
  int failures = 0;

  // A scripted plan exercising every detection path at once: one dead core,
  // a ~5% transient directed-link outage rate, and eLink write corruption.
  fault::ChaosConfig cc;
  cc.seed = 11;
  cc.dims = {8, 8};
  cc.horizon = 900'000;
  cc.core_kills = 1;
  cc.link_faults = 13;  // ~5% of the 256 directed links
  cc.transient_link_prob = 0.8;
  cc.elink_outages = 1;
  cc.elink_flips = 2;
  cc.mem_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);

  const ServeResult first = serve(plan, true, 40, 7, 30'000, 400'000);
  const ServeResult second = serve(plan, true, 40, 7, 30'000, 400'000);

  // The run must terminate with a verdict for every job: faults degrade the
  // mesh, they do not wedge the scheduler.
  check(first.unresolved == 0, "chaos: every job reached a verdict", failures);
  check(first.completed > 0, "chaos: serving continued under faults", failures);
  // The kill must have been noticed and its rectangle retired. (Completed
  // offload results are CRC/pattern-validated inside the scheduler when an
  // injector is armed, so `completed` jobs are bit-correct by construction.)
  check(first.quarantined >= 1, "chaos: dead core quarantined", failures);
  check(!first.fault_log.empty(), "chaos: faults were detected and reported",
        failures);
  // Determinism: the whole run -- report, decisions, detections, injections
  // -- replays byte-identically from (plan, workload seed).
  check(second.report == first.report, "chaos replay: report byte-identical",
        failures);
  check(second.decision_log == first.decision_log,
        "chaos replay: decision log byte-identical", failures);
  check(second.fault_log == first.fault_log,
        "chaos replay: fault log byte-identical", failures);
  check(second.injections == first.injections,
        "chaos replay: injection log byte-identical", failures);

  std::printf("\n-- fault log --\n");
  for (const auto& line : first.fault_log) std::printf("%s\n", line.c_str());
  std::printf("\nchaos-smoke: %s (completed %u, failed %u, quarantined %u)\n",
              failures == 0 ? "PASS" : "FAIL", first.completed, first.failed,
              first.quarantined);
  return failures == 0 ? 0 : 1;
}

/// Cluster chaos smoke: an RxC chip grid served under every chip-scoped
/// fault kind at once. The failover acceptance criteria in one binary: no
/// wedged jobs or graphs, orphaned forwards re-homed onto healthy chips,
/// and the full recovery transcript byte-identical on replay.
int cluster_chaos_smoke(unsigned rows, unsigned cols) {
  int failures = 0;

  fault::ChaosConfig cc;
  cc.seed = 11;
  cc.dims = {8, 8};
  cc.horizon = 900'000;
  cc.chip_rows = rows;
  cc.chip_cols = cols;
  cc.chip_crashes = 1;
  cc.chip_stalls = 1;
  cc.xmesh_faults = 2;
  cc.notice_drops = 2;
  cc.notice_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);

  sched::ClusterConfig conf;
  conf.chip_rows = rows;
  conf.chip_cols = cols;
  conf.traffic.jobs = 18;
  conf.traffic.seed = 7;
  conf.traffic.mean_interarrival = 40'000;
  conf.traffic.pipeline_frac = 0.3;  // graphs exercise DAG-aware recovery
  conf.remote_frac = 0.35;
  conf.sched.watchdog_cycles = 400'000;
  conf.cluster_plan = plan;

  struct Run {
    std::string report;
    sched::ClusterStats stats;
    unsigned unresolved = 0;
  };
  const auto serve_cluster = [&conf] {
    sched::ClusterScheduler cs(conf);
    cs.run();
    Run out;
    out.report = cs.report();
    out.stats = cs.stats();
    for (unsigned c = 0; c < cs.stats().chips; ++c) {
      for (const auto& rec : cs.chip_sched(c).records()) {
        if (rec.verdict == sched::Verdict::Pending) ++out.unresolved;
      }
    }
    return out;
  };

  const Run first = serve_cluster();
  check(first.unresolved == 0, "cluster chaos: no wedged jobs or graphs",
        failures);
  check(first.stats.dead_chips >= 1, "cluster chaos: a chip crashed mid-run",
        failures);
  check(first.stats.reforwarded > 0,
        "cluster chaos: orphaned forwards were re-homed", failures);
  check(first.stats.quarantines > 0,
        "cluster chaos: the sick chip was quarantined", failures);
  check(serve_cluster().report == first.report,
        "cluster chaos: a replay produces the same bytes", failures);

  std::printf(
      "\ncluster-chaos-smoke: %s (dead=%u reforwarded=%llu quarantines=%llu "
      "abandoned=%llu dup_dropped=%llu crc_rejects=%llu)\n",
      failures == 0 ? "PASS" : "FAIL", first.stats.dead_chips,
      static_cast<unsigned long long>(first.stats.reforwarded),
      static_cast<unsigned long long>(first.stats.quarantines),
      static_cast<unsigned long long>(first.stats.abandoned),
      static_cast<unsigned long long>(first.stats.dup_dropped),
      static_cast<unsigned long long>(first.stats.crc_rejects));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string verb;
  std::string plan_path, out_path;
  fault::ChaosConfig cc;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.core_stalls = 1;
  cc.link_faults = 4;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 1;
  unsigned jobs = 40;
  std::uint64_t traffic_seed = 7;
  sim::Cycles interarrival = 30'000;
  sim::Cycles watchdog = 400'000;
  bool print_log = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "gen" || arg == "run") { verb = arg; continue; }
      if (arg == "--selftest") { verb = "selftest"; continue; }
      if (arg == "--chaos-smoke") { verb = "chaos-smoke"; continue; }
      if (arg == "--log") { print_log = true; continue; }
      if (value_flag(arg, "--plan", plan_path) ||
          value_flag(arg, "--out", out_path) ||
          cli::uint_flag(arg, "--chaos-seed", cc.seed, 0, cli::kMaxSeed) ||
          cli::uint_flag(arg, "--kills", cc.core_kills, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--stalls", cc.core_stalls, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--links", cc.link_faults, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--elink-outages", cc.elink_outages, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--elink-flips", cc.elink_flips, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--mem-flips", cc.mem_flips, 0, cli::kMaxFaults) ||
          cli::grid_flag(arg, "--chips", cc.chip_rows, cc.chip_cols, 8) ||
          cli::uint_flag(arg, "--chip-crashes", cc.chip_crashes, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--chip-stalls", cc.chip_stalls, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--xmesh", cc.xmesh_faults, 0, cli::kMaxFaults) ||
          cli::uint_flag(arg, "--notice-drops", cc.notice_drops, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--notice-flips", cc.notice_flips, 0,
                         cli::kMaxFaults) ||
          cli::uint_flag(arg, "--horizon", cc.horizon, 0, cli::kMaxCycles) ||
          cli::uint_flag(arg, "--jobs", jobs, 1, cli::kMaxJobs) ||
          cli::uint_flag(arg, "--seed", traffic_seed, 0, cli::kMaxSeed) ||
          cli::uint_flag(arg, "--interarrival", interarrival, 0,
                         cli::kMaxCycles) ||
          cli::uint_flag(arg, "--watchdog", watchdog, 0, cli::kMaxCycles)) {
        continue;
      }
      throw cli::UsageError("unknown argument '" + std::string(arg) +
                            "' (see the header of tools/epi_fault.cpp)");
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "epi_fault: %s\n", e.what());
    return 2;
  }

  try {
    if (verb == "selftest") return selftest();
    if (verb == "chaos-smoke") {
      if (cc.chip_rows != 0) {
        if (cc.chip_rows * cc.chip_cols < 2) {
          std::fprintf(stderr,
                       "epi_fault: --chaos-smoke --chips needs a grid of at "
                       "least 2 chips\n");
          return 2;
        }
        return cluster_chaos_smoke(cc.chip_rows, cc.chip_cols);
      }
      return chaos_smoke();
    }
    if (verb == "gen") {
      const std::string text = fault::save(fault::generate(cc));
      if (out_path.empty()) {
        std::cout << text;
      } else {
        std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
        if (!os) throw std::runtime_error("cannot write plan: " + out_path);
        os << text;
        std::cout << "wrote " << out_path << "\n";
      }
      return 0;
    }
    if (verb == "run") {
      if (plan_path.empty()) {
        std::fprintf(stderr, "epi_fault run: --plan=FILE is required\n");
        return 2;
      }
      const fault::FaultPlan plan = fault::load_file(plan_path);
      const ServeResult r =
          serve(plan, true, jobs, traffic_seed, interarrival, watchdog);
      std::cout << r.report;
      if (!r.fault_log.empty()) {
        std::cout << "\n-- fault log --\n";
        for (const auto& line : r.fault_log) std::cout << line << "\n";
      }
      if (print_log) {
        std::cout << "\n-- injections --\n";
        for (const auto& line : r.injections) std::cout << line << "\n";
        std::cout << "\n-- decision log --\n";
        for (const auto& line : r.decision_log) std::cout << line << "\n";
      }
      return r.unresolved == 0 ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_fault: error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "epi_fault: expected a verb: gen | run | --selftest | --chaos-smoke\n");
  return 2;
}
