#include "sched/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string_view>

#include "fault/injector.hpp"
#include "sched/cluster.hpp"
#include "util/fmt.hpp"

namespace epi::sched {

sim::Cycles percentile(std::vector<sim::Cycles> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

RunStats summarise(const Scheduler& sched) {
  RunStats rs;
  rs.makespan = sched.makespan();
  rs.utilisation = sched.utilisation();

  std::map<std::string, TenantStats> tenants;  // ordered: deterministic output
  std::map<std::string, std::vector<sim::Cycles>> tenant_waits, tenant_tats;
  std::vector<sim::Cycles> waits, tats;
  struct GraphAgg {
    sim::Cycles first_arrival = std::numeric_limits<sim::Cycles>::max();
    sim::Cycles last_finish = 0;
    double service_sum = 0.0;
    bool all_completed = true;
  };
  std::map<std::uint32_t, GraphAgg> graph_aggs;  // ordered: deterministic

  for (const JobRecord& rec : sched.records()) {
    ++rs.jobs;
    TenantStats& ts = tenants[rec.spec.tenant];
    ts.tenant = rec.spec.tenant;
    ++ts.submitted;
    if (rec.spec.deadline != 0) {
      ++rs.deadlines;
      if (rec.verdict == Verdict::Completed && rec.deadline_met) ++rs.deadlines_met;
    }
    if (rec.recovery == Recovery::Retried) ++rs.retried;
    if (rec.recovery == Recovery::Relocated) ++rs.relocated;
    if (rec.spec.graph != 0) {
      GraphAgg& ga = graph_aggs[rec.spec.graph];
      ga.first_arrival = std::min(ga.first_arrival, rec.spec.arrival);
      if (rec.verdict == Verdict::Completed) {
        ga.last_finish = std::max(ga.last_finish, rec.finished);
        ga.service_sum += static_cast<double>(rec.service());
      } else {
        ga.all_completed = false;
      }
    }
    switch (rec.verdict) {
      case Verdict::Completed:
        ++rs.completed;
        ++ts.completed;
        ts.core_cycles += static_cast<double>(rec.cores()) *
                          static_cast<double>(rec.service());
        waits.push_back(rec.queue_wait());
        tats.push_back(rec.turnaround());
        tenant_waits[rec.spec.tenant].push_back(rec.queue_wait());
        tenant_tats[rec.spec.tenant].push_back(rec.turnaround());
        break;
      case Verdict::Rejected: ++rs.rejected; ++ts.rejected; break;
      case Verdict::TimedOut: ++rs.timed_out; ++ts.timed_out; break;
      case Verdict::Failed: ++rs.failed; ++ts.failed; break;
      case Verdict::Pending: break;  // only possible before run()
    }
  }

  rs.faults_detected = static_cast<unsigned>(sched.fault_log().size());
  rs.cores_quarantined = sched.allocator().quarantined_cores();
  rs.graphs = static_cast<unsigned>(graph_aggs.size());
  rs.handoff_scratch_bytes = sched.handoff_scratch_bytes();
  rs.handoff_dram_bytes = sched.handoff_dram_bytes();
  std::vector<sim::Cycles> e2es;
  double overlap_sum = 0.0;
  for (const auto& [gid, ga] : graph_aggs) {
    (void)gid;
    if (!ga.all_completed || ga.last_finish < ga.first_arrival) continue;
    ++rs.graphs_completed;
    const sim::Cycles e2e = ga.last_finish - ga.first_arrival;
    e2es.push_back(e2e);
    if (e2e > 0) overlap_sum += ga.service_sum / static_cast<double>(e2e);
  }
  rs.graph_e2e_p50 = percentile(e2es, 50.0);
  rs.graph_e2e_p99 = percentile(std::move(e2es), 99.0);
  if (rs.graphs_completed > 0) {
    rs.stage_overlap = overlap_sum / rs.graphs_completed;
  }
  if (rs.makespan > 0) {
    rs.graph_throughput = static_cast<double>(rs.graphs_completed) /
                          (static_cast<double>(rs.makespan) / 1e6);
  }
  rs.wait_p50 = percentile(waits, 50.0);
  rs.wait_p99 = percentile(waits, 99.0);
  rs.turnaround_p50 = percentile(tats, 50.0);
  rs.turnaround_p99 = percentile(tats, 99.0);
  if (rs.makespan > 0) {
    rs.throughput = static_cast<double>(rs.completed) /
                    (static_cast<double>(rs.makespan) / 1e6);
  }
  for (auto& [name, ts] : tenants) {
    ts.wait_p50 = percentile(tenant_waits[name], 50.0);
    ts.wait_p99 = percentile(tenant_waits[name], 99.0);
    ts.turnaround_p50 = percentile(tenant_tats[name], 50.0);
    ts.turnaround_p99 = percentile(tenant_tats[name], 99.0);
    rs.tenants.push_back(std::move(ts));
  }
  return rs;
}

std::string render_report(const Scheduler& sched) {
  const RunStats rs = summarise(sched);
  std::string out;
  out += "== epi-serve run report ==\n";
  out += util::format(
      "jobs %u | completed %u rejected %u timed-out %u failed %u\n", rs.jobs,
      rs.completed, rs.rejected, rs.timed_out, rs.failed);
  out += util::format(
      "makespan %llu cycles | throughput %.3f jobs/Mcycle | utilisation %.1f%% "
      "| peak resident groups %u\n",
      static_cast<unsigned long long>(rs.makespan), rs.throughput,
      100.0 * rs.utilisation, sched.peak_resident());
  out += util::format(
      "queue wait p50/p99 %llu/%llu | turnaround p50/p99 %llu/%llu\n",
      static_cast<unsigned long long>(rs.wait_p50),
      static_cast<unsigned long long>(rs.wait_p99),
      static_cast<unsigned long long>(rs.turnaround_p50),
      static_cast<unsigned long long>(rs.turnaround_p99));
  if (rs.deadlines > 0) {
    out += util::format("deadlines met %u/%u (%.1f%%)\n", rs.deadlines_met,
                        rs.deadlines,
                        100.0 * rs.deadlines_met / rs.deadlines);
  }
  if (rs.faults_detected > 0 || rs.cores_quarantined > 0) {
    out += util::format(
        "faults detected %u | recovered retried %u relocated %u | cores "
        "quarantined %u\n",
        rs.faults_detected, rs.retried, rs.relocated, rs.cores_quarantined);
  }
  out += util::format("final fragmentation %.3f (%u cores free)\n",
                      sched.allocator().fragmentation(),
                      sched.allocator().free_cores());

  if (rs.graphs > 0) {
    out += "\n-- pipelines --\n";
    out += util::format(
        "graphs %u | completed %u | e2e p50/p99 %llu/%llu | graphs/Mcycle "
        "%.3f\n",
        rs.graphs, rs.graphs_completed,
        static_cast<unsigned long long>(rs.graph_e2e_p50),
        static_cast<unsigned long long>(rs.graph_e2e_p99),
        rs.graph_throughput);
    out += util::format(
        "stage overlap %.2fx | handoff scratch %llu B dram %llu B\n",
        rs.stage_overlap,
        static_cast<unsigned long long>(rs.handoff_scratch_bytes),
        static_cast<unsigned long long>(rs.handoff_dram_bytes));
  }

  out += "\n-- tenants --\n";
  for (const TenantStats& ts : rs.tenants) {
    out += util::format(
        "%-10s sub %3u ok %3u rej %2u to %2u fail %2u | wait p50/p99 "
        "%llu/%llu | core-cycles %.0f\n",
        ts.tenant.c_str(), ts.submitted, ts.completed, ts.rejected, ts.timed_out,
        ts.failed, static_cast<unsigned long long>(ts.wait_p50),
        static_cast<unsigned long long>(ts.wait_p99), ts.core_cycles);
  }

  out += "\n-- jobs --\n";
  for (const JobRecord& rec : sched.records()) {
    out += util::format(
        "job %3u %-7s %-8s %ux%u prio %u arrive %8llu", rec.spec.id,
        to_string(rec.spec.kind), to_string(rec.verdict), rec.spec.rows,
        rec.spec.cols, rec.spec.priority,
        static_cast<unsigned long long>(rec.spec.arrival));
    if (rec.verdict == Verdict::Completed) {
      out += util::format(
          " | at (%u,%u) %ux%u wait %7llu service %8llu attempts %u%s",
          rec.placed_row, rec.placed_col, rec.granted_rows, rec.granted_cols,
          static_cast<unsigned long long>(rec.queue_wait()),
          static_cast<unsigned long long>(rec.service()), rec.attempts,
          rec.spec.deadline == 0 ? ""
          : rec.deadline_met    ? " deadline-met"
                                : " DEADLINE-MISSED");
      if (rec.recovery == Recovery::Retried) out += " retried";
      if (rec.recovery == Recovery::Relocated) out += " relocated";
    } else if (!rec.detail.empty()) {
      out += " | " + rec.detail;
    }
    if (rec.spec.graph != 0) {
      out += util::format(" | graph %u stage %u", rec.spec.graph, rec.spec.stage);
    }
    out += "\n";
  }
  return out;
}

namespace {

void append_logs(std::string& out, const Scheduler& sched) {
  sched.event_log().for_each_block([&](std::string_view text) { out += text; });
  for (const auto& r : sched.fault_log()) out += fault::to_line(r) + "\n";
}

}  // namespace

std::string transcript(const Scheduler& sched) {
  std::string out = render_report(sched);
  append_logs(out, sched);
  return out;
}

std::string transcript(const ClusterScheduler& cluster) {
  std::string out = cluster.report();
  for (unsigned c = 0; c < cluster.stats().chips; ++c) {
    append_logs(out, cluster.chip_sched(c));
    for (const auto& line : cluster.notices(c)) out += line + "\n";
  }
  return out;
}

}  // namespace epi::sched
