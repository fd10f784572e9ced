// Ablation: serving throughput and latency of the epi-serve scheduler as
// offered load rises. One seeded traffic mix is replayed at three (or more)
// interarrival scales against a fresh machine each time; jobs from different
// tenants are resident concurrently, so the mesh, eLink and DRAM window are
// genuinely shared -- queueing delay and contention, not kernel time alone,
// set the latency distribution.
//
// --metrics=FILE writes the results (throughput, p50/p99 queue wait and
// turnaround, utilisation, deadline hit-rate per load point); the committed
// BENCH_sched.json is that file, a byte-exact golden (ctest
// sched_bench_golden; scripts/bench.sh regenerates it). bench/sweep.hpp
// replays every point.
//
// Usage: abl_sched [--trace=FILE] [--csv=FILE] [--metrics=FILE]

#include <string>

#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sweep.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace epi;
  constexpr unsigned jobs = 48;

  bench::Sweep s;
  s.bench = "abl_sched";
  s.title = "epi-serve load sweep: " + std::to_string(jobs) +
            " jobs/point, seed 42, mixed matmul/stencil/offload";
  s.columns = {"interarrival", "done", "to", "rej", "fail", "jobs/Mcyc",
               "wait p50", "wait p99", "tat p99", "util %", "resident"};
  s.note = "(wait = admission->start queueing; tat = arrival->finish "
           "turnaround; cycles at 600 MHz)";
  // Offered load rises left to right: mean interarrival shrinks from "mesh
  // mostly idle" to "arrivals outpace drain".
  for (const sim::Cycles mi : {120'000, 40'000, 12'000}) {
    s.points.push_back({"interarrival " + std::to_string(mi), [mi](bench::Run& r) {
      sched::TrafficConfig tc;
      tc.jobs = jobs;
      tc.seed = 42;
      tc.mean_interarrival = mi;
      sched::Scheduler sc(r.machine());
      for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
      sc.run();

      const sched::RunStats rs = sched::summarise(sc);
      r.row({std::to_string(mi), std::to_string(rs.completed),
             std::to_string(rs.timed_out), std::to_string(rs.rejected),
             std::to_string(rs.failed), util::fmt(rs.throughput, 3),
             std::to_string(rs.wait_p50), std::to_string(rs.wait_p99),
             std::to_string(rs.turnaround_p99), util::fmt(100 * rs.utilisation, 1),
             std::to_string(sc.peak_resident())});

      const std::string pfx = "mi" + std::to_string(mi) + "_";
      r.metric(pfx + "completed", rs.completed);
      r.metric(pfx + "timed_out", rs.timed_out);
      r.metric(pfx + "rejected", rs.rejected);
      r.metric(pfx + "failed", rs.failed);
      r.metric(pfx + "throughput_jobs_per_mcycle", rs.throughput);
      r.metric(pfx + "p50_wait_cycles", static_cast<double>(rs.wait_p50));
      r.metric(pfx + "p99_wait_cycles", static_cast<double>(rs.wait_p99));
      r.metric(pfx + "p50_turnaround_cycles", static_cast<double>(rs.turnaround_p50));
      r.metric(pfx + "p99_turnaround_cycles", static_cast<double>(rs.turnaround_p99));
      r.metric(pfx + "utilisation", rs.utilisation);
      r.metric(pfx + "peak_resident_groups", sc.peak_resident());
      r.metric(pfx + "deadline_hit_rate",
               rs.deadlines > 0 ? static_cast<double>(rs.deadlines_met) / rs.deadlines
                                : 1.0);
      return sched::transcript(sc);
    }});
  }
  // Tracing covers the busiest point only: one timeline of the most
  // contended regime, instead of three files overwriting one another.
  s.traced = s.points.back().label;
  return bench::run_sweep(s, argc, argv);
}
