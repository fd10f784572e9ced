#pragma once
// Serving-run accounting: percentile summaries, per-tenant aggregation, the
// deterministic text report epi_serve prints, and the transcript -- the
// definition of what a serving run outputs. Everything here is a pure
// function of the finished run, so two same-seed runs render byte-identical
// reports and transcripts; epi_serve --selftest, the golden sweeps and the
// determinism goldens compare transcripts directly.

#include <string>
#include <vector>

#include "sched/job.hpp"
#include "sched/scheduler.hpp"

namespace epi::sched {

class ClusterScheduler;

/// Nearest-rank percentile (p in [0,100]) of a sample set; 0 when empty.
/// Sorts a copy: report-time cost, never scheduler-path cost.
[[nodiscard]] sim::Cycles percentile(std::vector<sim::Cycles> samples, double p);

struct TenantStats {
  std::string tenant;
  unsigned submitted = 0;
  unsigned completed = 0;
  unsigned rejected = 0;
  unsigned timed_out = 0;
  unsigned failed = 0;
  double core_cycles = 0.0;       // cores x service over completed jobs
  sim::Cycles wait_p50 = 0;       // queue-wait percentiles over started jobs
  sim::Cycles wait_p99 = 0;
  sim::Cycles turnaround_p50 = 0; // arrival->finish over completed jobs
  sim::Cycles turnaround_p99 = 0;
};

struct RunStats {
  unsigned jobs = 0;
  unsigned completed = 0;
  unsigned rejected = 0;
  unsigned timed_out = 0;
  unsigned failed = 0;
  unsigned deadlines = 0;      // jobs that carried a deadline
  unsigned deadlines_met = 0;
  sim::Cycles makespan = 0;
  double utilisation = 0.0;    // busy core-cycles / (cores * makespan)
  double throughput = 0.0;     // completed jobs per Mcycle
  sim::Cycles wait_p50 = 0, wait_p99 = 0;
  sim::Cycles turnaround_p50 = 0, turnaround_p99 = 0;
  // Fault-recovery outcomes (all zero in a clean run, and then absent from
  // the rendered report -- the no-fault report bytes must not change).
  unsigned retried = 0;        // completed after re-execution, same rectangle
  unsigned relocated = 0;      // completed after re-execution elsewhere
  unsigned faults_detected = 0;      // FaultReports raised during the run
  unsigned cores_quarantined = 0;    // cores retired by the watchdog
  // Pipeline (job-graph) aggregates -- all zero when the stream carries no
  // graphs, and then absent from the rendered report (pre-pipeline report
  // bytes must not change).
  unsigned graphs = 0;               // distinct graph ids in the stream
  unsigned graphs_completed = 0;     // graphs whose every stage completed
  sim::Cycles graph_e2e_p50 = 0;     // first-arrival -> last-finish, completed
  sim::Cycles graph_e2e_p99 = 0;
  double graph_throughput = 0.0;     // completed graphs per Mcycle
  double stage_overlap = 0.0;        // mean sum(stage service)/e2e, completed
                                     // graphs (>1 needs concurrent stages of
                                     // the same graph; pipelining across
                                     // requests shows up in throughput)
  std::uint64_t handoff_scratch_bytes = 0;  // consumer pulls by transport
  std::uint64_t handoff_dram_bytes = 0;
  std::vector<TenantStats> tenants;  // sorted by tenant name
};

/// Aggregate a finished scheduler run.
[[nodiscard]] RunStats summarise(const Scheduler& sched);

/// Render the full epi_serve report: run summary, per-tenant table, and the
/// per-job verdict listing (every job appears with its verdict -- timeouts
/// and failures are reported, never silently dropped).
[[nodiscard]] std::string render_report(const Scheduler& sched);

/// Everything a single-chip serving run outputs: the report, then the
/// decision log and the fault log, one line per entry. A replay of the same
/// run must reproduce these bytes exactly.
[[nodiscard]] std::string transcript(const Scheduler& sched);

/// Everything a cluster run outputs: the cluster report, then for each chip
/// in id order its decision log, fault log and delivered notices.
[[nodiscard]] std::string transcript(const ClusterScheduler& cluster);

}  // namespace epi::sched
