// Ablation: serving behaviour of epi-serve as injected hardware fault rate
// rises. One fixed seeded traffic mix is replayed against a fresh machine
// per fault level; each level arms a seeded chaos plan (core kills/stalls,
// directed mesh-link outages, eLink outages and bit corruption, DRAM write
// flips) and the full detection/recovery stack (watchdog, CRC retries,
// result validation, quarantine + bounded re-execution).
//
// Reported per level: goodput (completed jobs per Mcycle -- throughput net
// of all fault losses), verdict mix, detection latency (fault strike ->
// FaultReport), retry amplification (kernel executions per completed job),
// and how much of the mesh ended the run quarantined.
//
// Results go to BENCH_faults.json; the committed copy at the repository
// root is a byte-exact golden (ctest faults_bench_golden). Every level is
// replayed once and the run exits non-zero if the decision or fault log
// diverges.
//
// Usage: abl_faults [--metrics=FILE] [--no-metrics]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace {

using namespace epi;

struct Level {
  const char* name;
  unsigned kills, stalls, links, elink_outages, elink_flips, mem_flips;
};

// Fault counts per serving run (~1.5 Mcycles of traffic). "none" is the
// clean baseline every degradation is measured against.
constexpr Level kLevels[] = {
    {"none", 0, 0, 0, 0, 0, 0},
    {"low", 0, 1, 4, 1, 1, 1},
    {"mid", 1, 2, 10, 2, 2, 2},
    {"high", 2, 4, 20, 3, 4, 4},
};

struct LevelResult {
  sched::RunStats stats;
  std::vector<std::string> decision_log;
  std::vector<std::string> fault_log;
  double mean_detect_latency = 0.0;  // cycles, fault strike -> report
  double retry_amplification = 1.0;  // kernel executions per completed job
  unsigned reexecs = 0;
};

fault::FaultPlan plan_for(const Level& lv, std::uint64_t seed) {
  fault::ChaosConfig cc;
  cc.seed = seed;
  cc.dims = {8, 8};
  cc.horizon = 1'200'000;
  cc.core_kills = lv.kills;
  cc.core_stalls = lv.stalls;
  cc.link_faults = lv.links;
  cc.elink_outages = lv.elink_outages;
  cc.elink_flips = lv.elink_flips;
  cc.mem_flips = lv.mem_flips;
  return fault::generate(cc);
}

LevelResult run_level(const Level& lv, unsigned jobs) {
  host::System sys;
  sys.machine().enable_faults(plan_for(lv, 1000 + static_cast<std::uint64_t>(&lv - kLevels)));

  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = 42;
  tc.mean_interarrival = 30'000;

  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 400'000;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  LevelResult lr;
  lr.stats = sched::summarise(sc);
  lr.decision_log = sc.event_log();
  for (const auto& r : sc.fault_log()) lr.fault_log.push_back(fault::to_line(r));

  double latency_sum = 0.0;
  for (const auto& r : sc.fault_log()) {
    latency_sum += static_cast<double>(r.detected >= r.since ? r.detected - r.since : 0);
  }
  if (!sc.fault_log().empty()) {
    lr.mean_detect_latency = latency_sum / static_cast<double>(sc.fault_log().size());
  }

  unsigned executions = 0;
  for (const auto& rec : sc.records()) {
    if (rec.placed_once) executions += 1 + rec.reexecs;
    lr.reexecs += rec.reexecs;
  }
  if (lr.stats.completed > 0) {
    lr.retry_amplification =
        static_cast<double>(executions) / static_cast<double>(lr.stats.completed);
  }
  return lr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      util::BenchArgs::parse(argc, argv, "abl_faults", "BENCH_faults.json");
  if (args.reject_positional()) return 2;
  constexpr unsigned jobs = 48;

  std::cout << "epi-serve fault sweep: " << jobs
            << " jobs/level, traffic seed 42, watchdog 400000 cycles\n\n";
  util::Table t({"faults", "done", "fail", "to", "goodput", "detected",
                 "latency", "retry amp", "quarantined", "util %"});

  util::BenchReport report("abl_faults");
  bool ok = true;
  for (const Level& lv : kLevels) {
    const LevelResult lr = run_level(lv, jobs);
    const LevelResult again = run_level(lv, jobs);
    if (again.decision_log != lr.decision_log || again.fault_log != lr.fault_log) {
      std::fprintf(stderr,
                   "abl_faults: FAIL: run diverged between two identical "
                   "runs at level %s\n",
                   lv.name);
      ok = false;
    }
    const sched::RunStats& rs = lr.stats;
    t.add_row({lv.name, std::to_string(rs.completed), std::to_string(rs.failed),
               std::to_string(rs.timed_out), util::fmt(rs.throughput, 3),
               std::to_string(rs.faults_detected),
               util::fmt(lr.mean_detect_latency, 0),
               util::fmt(lr.retry_amplification, 2),
               std::to_string(rs.cores_quarantined),
               util::fmt(100 * rs.utilisation, 1)});

    const std::string pfx = std::string("f_") + lv.name + "_";
    report.metric(pfx + "goodput_jobs_per_mcycle", rs.throughput);
    // Jobs/Mcycle alone can *rise* with fault rate (dropping a doomed 8x8
    // job shortens the makespan denominator more than it costs the
    // numerator), so the served fraction of the offered stream is the
    // headline degradation figure.
    report.metric(pfx + "completed_fraction",
                  rs.jobs > 0 ? static_cast<double>(rs.completed) / rs.jobs : 0.0);
    report.metric(pfx + "completed", rs.completed);
    report.metric(pfx + "failed", rs.failed);
    report.metric(pfx + "timed_out", rs.timed_out);
    report.metric(pfx + "faults_detected", rs.faults_detected);
    report.metric(pfx + "mean_detect_latency_cycles", lr.mean_detect_latency);
    report.metric(pfx + "retry_amplification", lr.retry_amplification);
    report.metric(pfx + "reexecutions", lr.reexecs);
    report.metric(pfx + "jobs_retried", rs.retried);
    report.metric(pfx + "jobs_relocated", rs.relocated);
    report.metric(pfx + "cores_quarantined", rs.cores_quarantined);
    report.metric(pfx + "utilisation", rs.utilisation);
  }
  t.print(std::cout);
  std::cout << "\n(goodput = completed jobs per Mcycle net of fault losses; "
               "latency = fault strike -> FaultReport,\n retry amp = kernel "
               "executions per completed job; cycles at 600 MHz)\n";

  util::finish_bench(args, nullptr, report);

  return ok ? 0 : 1;
}
