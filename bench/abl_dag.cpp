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
// --metrics=FILE writes the results; the committed BENCH_dag.json is that
// file, a byte-exact golden (ctest dag_bench_golden; scripts/bench.sh
// regenerates it). bench/sweep.hpp replays every policy. The run also fails
// if a policy leaves a graph unfinished or either headline ordering below
// fails.
//
// Usage: abl_dag [--trace=FILE] [--csv=FILE] [--metrics=FILE]

#include <cstdio>
#include <string>

#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sweep.hpp"
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

constexpr unsigned kJobs = 60;

std::string run_policy(const Policy& p, bench::Run& r) {
  sched::TrafficConfig tc;
  tc.jobs = kJobs;
  tc.seed = 42;
  tc.mean_interarrival = 20'000;
  tc.pipeline_frac = 1.0;  // every request is a 2-3 stage graph
  tc.fail_prob = 0.0;      // isolate the handoff/overlap policies under test
  tc.timeout = 0;

  sched::SchedConfig cfg;
  cfg.pipeline_overlap = p.overlap;
  cfg.scratch_handoff = p.scratch;

  sched::Scheduler sc(r.machine(), cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();

  const sched::RunStats rs = sched::summarise(sc);
  r.row({p.name, std::to_string(rs.graphs), std::to_string(rs.graphs_completed),
         util::fmt(rs.graph_throughput, 3), std::to_string(rs.graph_e2e_p50),
         std::to_string(rs.graph_e2e_p99), util::fmt(rs.stage_overlap, 2),
         std::to_string(rs.handoff_scratch_bytes),
         std::to_string(rs.handoff_dram_bytes), util::fmt(100 * rs.utilisation, 1)});

  const std::string pfx = std::string(p.name) + "_";
  r.metric(pfx + "graphs", rs.graphs);
  r.metric(pfx + "graphs_completed", rs.graphs_completed);
  r.metric(pfx + "graph_throughput_per_mcycle", rs.graph_throughput);
  r.metric(pfx + "e2e_p50_cycles", static_cast<double>(rs.graph_e2e_p50));
  r.metric(pfx + "e2e_p99_cycles", static_cast<double>(rs.graph_e2e_p99));
  r.metric(pfx + "stage_overlap", rs.stage_overlap);
  r.metric(pfx + "handoff_scratch_bytes", static_cast<double>(rs.handoff_scratch_bytes));
  r.metric(pfx + "handoff_dram_bytes", static_cast<double>(rs.handoff_dram_bytes));
  r.metric(pfx + "makespan_cycles", static_cast<double>(rs.makespan));
  r.metric(pfx + "utilisation", rs.utilisation);
  return sched::transcript(sc);
}

// Every policy finishes every graph, and the two claims of record hold:
// overlap buys end-to-end throughput, and the scratchpad handoff path buys
// latency over the DRAM spill. Checked here so that re-recording the golden
// cannot paper over a policy regression.
bool check_claims(const bench::BenchReport& m) {
  bool ok = true;
  const auto claim = [&ok](bool holds, const std::string& what) {
    if (!holds) std::fprintf(stderr, "abl_dag: FAIL: %s\n", what.c_str());
    ok = ok && holds;
  };
  for (const Policy& p : kPolicies) {
    const std::string pfx = std::string(p.name) + "_";
    claim(m.value(pfx + "graphs_completed") == m.value(pfx + "graphs"),
          "policy " + std::string(p.name) + " left graphs unfinished");
  }
  claim(m.value("piped_graph_throughput_per_mcycle") >
            m.value("serial_graph_throughput_per_mcycle"),
        "pipelined graph throughput does not beat serialized");
  claim(m.value("piped_e2e_p50_cycles") < m.value("dram_e2e_p50_cycles"),
        "scratchpad-handoff e2e p50 does not beat DRAM-handoff");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep s;
  s.bench = "abl_dag";
  s.title = "epi-dag policy ablation: " + std::to_string(kJobs) +
            " stage-jobs/point, seed 42, all-pipeline traffic";
  s.columns = {"policy", "graphs", "done", "g/Mcyc", "e2e p50", "e2e p99",
               "overlap", "scratch B", "dram B", "util %"};
  s.note = "(e2e = first stage arrival -> last stage finish per graph; "
           "cycles at 600 MHz)";
  for (const Policy& p : kPolicies) {
    s.points.push_back({std::string("policy ") + p.name,
                        [&p](bench::Run& r) { return run_policy(p, r); }});
  }
  // Tracing covers the fully-enabled policy only: one timeline of the
  // regime of record, instead of three files overwriting one another.
  s.traced = "policy piped";
  s.check = check_claims;
  return bench::run_sweep(s, argc, argv);
}
