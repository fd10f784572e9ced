// Ablation: pipeline (job-graph) serving policies. One seeded all-pipeline
// stream is replayed against a fresh machine under three scheduler policies:
//
//   serial  -- pipeline_overlap=false: whole graphs run one at a time in id
//              order (the no-pipelining baseline; stage handoffs may still
//              use the scratchpad path);
//   piped   -- pipeline_overlap=true, scratch_handoff=true: stages of
//              different graphs are co-resident, and adjacent producer ->
//              consumer handoffs pull scratchpad-to-scratchpad over the mesh;
//   dram    -- pipeline_overlap=true, scratch_handoff=false: same overlap,
//              but every handoff goes through the shared-DRAM spill buffer
//              and back over the contended eLink.
//
// The headline comparisons: piped vs serial on end-to-end graph throughput
// (what stage pipelining buys), and piped vs dram on e2e latency (what the
// scratchpad handoff path buys when co-placement makes stages adjacent).
//
// Results go to BENCH_dag.json; the committed copy at the repository root is
// a byte-exact golden (ctest dag_bench_golden). Every policy is replayed once
// on a fresh machine and the run exits non-zero if the scheduler's decision
// log diverges or either headline ordering below fails.
//
// Usage: abl_dag [--trace=FILE] [--csv=FILE] [--metrics=FILE] [--no-metrics]

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

struct Policy {
  const char* name;
  bool overlap;
  bool scratch;
};

constexpr Policy kPolicies[] = {
    {"serial", false, true},
    {"piped", true, true},
    {"dram", true, false},
};

struct PointResult {
  sched::RunStats stats;
  std::vector<std::string> event_log;
};

PointResult run_policy(host::System& sys, const Policy& p, unsigned jobs) {
  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = 42;
  tc.mean_interarrival = 20'000;
  tc.pipeline_frac = 1.0;  // every request is a 2-3 stage graph
  tc.fail_prob = 0.0;      // isolate the handoff/overlap policies under test
  tc.timeout = 0;

  sched::SchedConfig cfg;
  cfg.pipeline_overlap = p.overlap;
  cfg.scratch_handoff = p.scratch;

  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  PointResult pr;
  pr.stats = sched::summarise(sc);
  pr.event_log = sc.event_log();
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args =
      util::BenchArgs::parse(argc, argv, "abl_dag", "BENCH_dag.json");
  if (args.reject_positional()) return 2;
  constexpr unsigned jobs = 60;

  std::cout << "epi-dag policy ablation: " << jobs
            << " stage-jobs/point, seed 42, all-pipeline traffic\n\n";
  util::Table t({"policy", "graphs", "done", "g/Mcyc", "e2e p50", "e2e p99",
                 "overlap", "scratch B", "dram B", "util %"});

  util::BenchReport report("abl_dag");
  bool ok = true;
  std::unique_ptr<host::System> traced_sys;  // kept alive for finish_bench
  double serial_tput = 0.0, piped_tput = 0.0;
  sim::Cycles piped_p50 = 0, dram_p50 = 0;
  for (const Policy& p : kPolicies) {
    // Tracing is only attached to the fully-enabled policy: one timeline of
    // the regime of record, instead of three files overwriting one another.
    const bool trace_this = args.tracing() && std::string(p.name) == "piped";
    auto sys = std::make_unique<host::System>();
    if (trace_this) sys->machine().enable_tracing();
    PointResult pr = run_policy(*sys, p, jobs);
    if (trace_this) traced_sys = std::move(sys);
    host::System replay;
    if (run_policy(replay, p, jobs).event_log != pr.event_log) {
      std::fprintf(stderr,
                   "abl_dag: FAIL: scheduler event order diverged between "
                   "two identical runs under policy %s\n",
                   p.name);
      ok = false;
    }
    const sched::RunStats& rs = pr.stats;
    t.add_row({p.name, std::to_string(rs.graphs),
               std::to_string(rs.graphs_completed),
               util::fmt(rs.graph_throughput, 3),
               std::to_string(rs.graph_e2e_p50),
               std::to_string(rs.graph_e2e_p99), util::fmt(rs.stage_overlap, 2),
               std::to_string(rs.handoff_scratch_bytes),
               std::to_string(rs.handoff_dram_bytes),
               util::fmt(100 * rs.utilisation, 1)});

    const std::string pfx = std::string(p.name) + "_";
    report.metric(pfx + "graphs", rs.graphs);
    report.metric(pfx + "graphs_completed", rs.graphs_completed);
    report.metric(pfx + "graph_throughput_per_mcycle", rs.graph_throughput);
    report.metric(pfx + "e2e_p50_cycles", static_cast<double>(rs.graph_e2e_p50));
    report.metric(pfx + "e2e_p99_cycles", static_cast<double>(rs.graph_e2e_p99));
    report.metric(pfx + "stage_overlap", rs.stage_overlap);
    report.metric(pfx + "handoff_scratch_bytes",
                  static_cast<double>(rs.handoff_scratch_bytes));
    report.metric(pfx + "handoff_dram_bytes",
                  static_cast<double>(rs.handoff_dram_bytes));
    report.metric(pfx + "makespan_cycles", static_cast<double>(rs.makespan));
    report.metric(pfx + "utilisation", rs.utilisation);

    if (std::string(p.name) == "serial") serial_tput = rs.graph_throughput;
    if (std::string(p.name) == "piped") {
      piped_tput = rs.graph_throughput;
      piped_p50 = rs.graph_e2e_p50;
    }
    if (std::string(p.name) == "dram") dram_p50 = rs.graph_e2e_p50;
    if (rs.graphs_completed != rs.graphs) {
      std::fprintf(stderr, "abl_dag: FAIL: policy %s completed %u/%u graphs\n",
                   p.name, rs.graphs_completed, rs.graphs);
      ok = false;
    }
  }
  t.print(std::cout);
  std::cout << "\n(e2e = first stage arrival -> last stage finish per graph; "
               "cycles at 600 MHz)\n";

  // The two claims of record: overlap buys end-to-end throughput, and the
  // scratchpad handoff path buys latency over the DRAM spill. Checked here
  // so that re-recording the golden cannot paper over a policy regression.
  if (piped_tput <= serial_tput) {
    std::fprintf(stderr,
                 "abl_dag: FAIL: pipelined throughput %.3f g/Mcyc does not "
                 "beat serialized %.3f\n",
                 piped_tput, serial_tput);
    ok = false;
  }
  if (piped_p50 >= dram_p50) {
    std::fprintf(stderr,
                 "abl_dag: FAIL: scratchpad-handoff e2e p50 %llu does not "
                 "beat DRAM-handoff %llu\n",
                 static_cast<unsigned long long>(piped_p50),
                 static_cast<unsigned long long>(dram_p50));
    ok = false;
  }

  util::finish_bench(args, traced_sys ? traced_sys->machine().tracer() : nullptr,
                     report);

  return ok ? 0 : 1;
}
