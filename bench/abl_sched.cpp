// Ablation: serving throughput and latency of the epi-serve scheduler as
// offered load rises. One seeded traffic mix is replayed at three (or more)
// interarrival scales against a fresh machine each time; jobs from different
// tenants are resident concurrently, so the mesh, eLink and DRAM window are
// genuinely shared -- queueing delay and contention, not kernel time alone,
// set the latency distribution.
//
// Results go to BENCH_sched.json (throughput, p50/p99 queue wait and
// turnaround, utilisation, deadline hit-rate per load point); the committed
// copy at the repository root is a byte-exact golden (ctest
// sched_bench_golden). Every load point is replayed once on a fresh machine
// and the run exits non-zero if the scheduler's decision log diverges.
//
// Usage: abl_sched [--trace=FILE] [--csv=FILE] [--metrics=FILE] [--no-metrics]

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "util/bench_report.hpp"
#include "util/table.hpp"

namespace {

using namespace epi;

struct PointResult {
  sched::RunStats stats;
  unsigned peak_resident = 0;
  std::vector<std::string> event_log;
};

PointResult run_point(host::System& sys, sim::Cycles mean_interarrival,
                      unsigned jobs) {
  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = 42;
  tc.mean_interarrival = mean_interarrival;

  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  PointResult pr;
  pr.stats = sched::summarise(sc);
  pr.peak_resident = sc.peak_resident();
  pr.event_log = sc.event_log();
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      util::BenchArgs::parse(argc, argv, "abl_sched", "BENCH_sched.json");
  if (args.reject_positional()) return 2;
  constexpr unsigned jobs = 48;
  // Offered load rises left to right: mean interarrival shrinks from "mesh
  // mostly idle" to "arrivals outpace drain".
  const std::vector<sim::Cycles> sweep = {120'000, 40'000, 12'000};

  std::cout << "epi-serve load sweep: " << jobs
            << " jobs/point, seed 42, mixed matmul/stencil/offload\n\n";
  util::Table t({"interarrival", "done", "to", "rej", "fail", "jobs/Mcyc",
                 "wait p50", "wait p99", "tat p99", "util %", "resident"});

  util::BenchReport report("abl_sched");
  bool ok = true;
  std::unique_ptr<host::System> traced_sys;  // kept alive for finish_bench
  for (const sim::Cycles mi : sweep) {
    // Tracing is only attached to the busiest point: one timeline of the most
    // contended regime, instead of three files overwriting one another.
    const bool trace_this = args.tracing() && mi == sweep.back();
    auto sys = std::make_unique<host::System>();
    if (trace_this) sys->machine().enable_tracing();
    PointResult pr = run_point(*sys, mi, jobs);
    if (trace_this) traced_sys = std::move(sys);
    host::System replay;
    if (run_point(replay, mi, jobs).event_log != pr.event_log) {
      std::fprintf(stderr,
                   "abl_sched: FAIL: scheduler event order diverged between "
                   "two identical runs at interarrival %llu\n",
                   static_cast<unsigned long long>(mi));
      ok = false;
    }
    const sched::RunStats& rs = pr.stats;
    t.add_row({std::to_string(mi), std::to_string(rs.completed),
               std::to_string(rs.timed_out), std::to_string(rs.rejected),
               std::to_string(rs.failed), util::fmt(rs.throughput, 3),
               std::to_string(rs.wait_p50), std::to_string(rs.wait_p99),
               std::to_string(rs.turnaround_p99), util::fmt(100 * rs.utilisation, 1),
               std::to_string(pr.peak_resident)});

    const std::string pfx = "mi" + std::to_string(mi) + "_";
    report.metric(pfx + "completed", rs.completed);
    report.metric(pfx + "timed_out", rs.timed_out);
    report.metric(pfx + "rejected", rs.rejected);
    report.metric(pfx + "failed", rs.failed);
    report.metric(pfx + "throughput_jobs_per_mcycle", rs.throughput);
    report.metric(pfx + "p50_wait_cycles", static_cast<double>(rs.wait_p50));
    report.metric(pfx + "p99_wait_cycles", static_cast<double>(rs.wait_p99));
    report.metric(pfx + "p50_turnaround_cycles",
                  static_cast<double>(rs.turnaround_p50));
    report.metric(pfx + "p99_turnaround_cycles",
                  static_cast<double>(rs.turnaround_p99));
    report.metric(pfx + "utilisation", rs.utilisation);
    report.metric(pfx + "peak_resident_groups", pr.peak_resident);
    report.metric(pfx + "deadline_hit_rate",
                  rs.deadlines > 0
                      ? static_cast<double>(rs.deadlines_met) / rs.deadlines
                      : 1.0);
  }
  t.print(std::cout);
  std::cout << "\n(wait = admission->start queueing; tat = arrival->finish "
               "turnaround; cycles at 600 MHz)\n";

  util::finish_bench(args, traced_sys ? traced_sys->machine().tracer() : nullptr,
                     report);

  return ok ? 0 : 1;
}
