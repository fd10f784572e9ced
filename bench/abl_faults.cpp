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
// --metrics=FILE writes the results; the committed BENCH_faults.json is that
// file, a byte-exact golden (ctest faults_bench_golden; scripts/bench.sh
// regenerates it). bench/sweep.hpp replays every level.
//
// Usage: abl_faults [--metrics=FILE]

#include <string>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sweep.hpp"
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

constexpr unsigned kJobs = 48;

fault::FaultPlan plan_for(const Level& lv) {
  fault::ChaosConfig cc;
  cc.seed = 1000 + static_cast<std::uint64_t>(&lv - kLevels);
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

std::string run_level(const Level& lv, bench::Run& r) {
  host::System& sys = r.machine();
  sys.machine().enable_faults(plan_for(lv));

  sched::TrafficConfig tc;
  tc.jobs = kJobs;
  tc.seed = 42;
  tc.mean_interarrival = 30'000;

  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 400'000;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  const sched::RunStats rs = sched::summarise(sc);
  double mean_detect_latency = 0.0;  // cycles, fault strike -> report
  for (const auto& f : sc.fault_log()) {
    mean_detect_latency +=
        static_cast<double>(f.detected >= f.since ? f.detected - f.since : 0);
  }
  if (!sc.fault_log().empty()) {
    mean_detect_latency /= static_cast<double>(sc.fault_log().size());
  }
  unsigned executions = 0, reexecs = 0;
  for (const auto& rec : sc.records()) {
    if (rec.placed_once) executions += 1 + rec.reexecs;
    reexecs += rec.reexecs;
  }
  // Kernel executions per completed job.
  const double retry_amplification =
      rs.completed > 0
          ? static_cast<double>(executions) / static_cast<double>(rs.completed)
          : 1.0;

  r.row({lv.name, std::to_string(rs.completed), std::to_string(rs.failed),
         std::to_string(rs.timed_out), util::fmt(rs.throughput, 3),
         std::to_string(rs.faults_detected), util::fmt(mean_detect_latency, 0),
         util::fmt(retry_amplification, 2), std::to_string(rs.cores_quarantined),
         util::fmt(100 * rs.utilisation, 1)});

  const std::string pfx = std::string("f_") + lv.name + "_";
  r.metric(pfx + "goodput_jobs_per_mcycle", rs.throughput);
  // Jobs/Mcycle alone can *rise* with fault rate (dropping a doomed 8x8
  // job shortens the makespan denominator more than it costs the
  // numerator), so the served fraction of the offered stream is the
  // headline degradation figure.
  r.metric(pfx + "completed_fraction",
           rs.jobs > 0 ? static_cast<double>(rs.completed) / rs.jobs : 0.0);
  r.metric(pfx + "completed", rs.completed);
  r.metric(pfx + "failed", rs.failed);
  r.metric(pfx + "timed_out", rs.timed_out);
  r.metric(pfx + "faults_detected", rs.faults_detected);
  r.metric(pfx + "mean_detect_latency_cycles", mean_detect_latency);
  r.metric(pfx + "retry_amplification", retry_amplification);
  r.metric(pfx + "reexecutions", reexecs);
  r.metric(pfx + "jobs_retried", rs.retried);
  r.metric(pfx + "jobs_relocated", rs.relocated);
  r.metric(pfx + "cores_quarantined", rs.cores_quarantined);
  r.metric(pfx + "utilisation", rs.utilisation);
  return sched::transcript(sc);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep s;
  s.bench = "abl_faults";
  s.title = "epi-serve fault sweep: " + std::to_string(kJobs) +
            " jobs/level, traffic seed 42, watchdog 400000 cycles";
  s.columns = {"faults", "done", "fail", "to", "goodput", "detected",
               "latency", "retry amp", "quarantined", "util %"};
  s.note = "(goodput = completed jobs per Mcycle net of fault losses; "
           "latency = fault strike -> FaultReport,\n retry amp = kernel "
           "executions per completed job; cycles at 600 MHz)";
  for (const Level& lv : kLevels) {
    s.points.push_back({std::string("level ") + lv.name,
                        [&lv](bench::Run& r) { return run_level(lv, r); }});
  }
  return bench::run_sweep(s, argc, argv);
}
