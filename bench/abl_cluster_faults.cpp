// Ablation: cluster serving behaviour as the chip-level fault rate rises.
// One fixed seeded per-chip traffic mix is replayed against a fresh 2x2
// xMesh cluster per fault level; each level arms a seeded cluster chaos
// plan (whole-chip crashes and host stalls, directed bridge-link outages
// with flapping, dropped and CRC-corrupted completion notices) and the
// full failover stack (heartbeat watchdogs, peer quarantine, idempotent
// re-forwarding with bounded retries, DAG-aware re-homing).
//
// Reported per level: cluster goodput (completed jobs per Mcycle of the
// cluster makespan, net of everything the faults cost), the served fraction
// of the offered stream, recovery volume (re-forwards, quarantines, home-
// side dedups, CRC rejects), and the chips lost.
//
// --metrics=FILE writes the results; the committed BENCH_cluster_faults.json
// is that file, a byte-exact golden (ctest cluster_faults_bench_golden;
// scripts/bench.sh regenerates it). bench/sweep.hpp replays every level.
//
// Usage: abl_cluster_faults [--metrics=FILE]

#include <string>

#include "fault/plan.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sweep.hpp"
#include "util/table.hpp"

namespace {

using namespace epi;

struct Level {
  const char* name;
  unsigned crashes, stalls, xmesh, drops, flips;
};

// Chip-fault counts per serving run. "none" leaves the plan without chip
// events, so the failover stack stays unarmed -- the clean baseline every
// degradation (and the instrumentation-is-free claim) is measured against.
constexpr Level kLevels[] = {
    {"none", 0, 0, 0, 0, 0},
    {"notices", 0, 0, 0, 3, 4},
    {"links", 0, 1, 3, 2, 2},
    {"crash", 1, 1, 2, 2, 2},
};

constexpr unsigned kJobs = 20;

sched::ClusterConfig config_for(const Level& lv) {
  sched::ClusterConfig cc;
  cc.chip_rows = 2;
  cc.chip_cols = 2;
  cc.traffic.jobs = kJobs;
  cc.traffic.seed = 42;
  cc.traffic.mean_interarrival = 40'000;
  cc.traffic.pipeline_frac = 0.3;
  cc.remote_frac = 0.35;
  cc.sched.watchdog_cycles = 400'000;

  fault::ChaosConfig ch;
  ch.seed = 2000 + static_cast<std::uint64_t>(&lv - kLevels);
  ch.dims = {8, 8};
  ch.chip_rows = 2;
  ch.chip_cols = 2;
  ch.horizon = 1'200'000;
  ch.chip_crashes = lv.crashes;
  ch.chip_stalls = lv.stalls;
  ch.xmesh_faults = lv.xmesh;
  ch.notice_drops = lv.drops;
  ch.notice_flips = lv.flips;
  cc.cluster_plan = fault::generate(ch);
  return cc;
}

// The cluster builds its own chips, so the run asks the harness for no machine.
std::string run_level(const Level& lv, bench::Run& r) {
  sched::ClusterScheduler cluster(config_for(lv));
  cluster.run();

  unsigned offered = 0, completed = 0, failed = 0, timed_out = 0;
  for (unsigned c = 0; c < cluster.stats().chips; ++c) {
    const sched::RunStats rs = sched::summarise(cluster.chip_sched(c));
    offered += rs.jobs;
    completed += rs.completed;
    failed += rs.failed;
    timed_out += rs.timed_out;
  }
  const sched::ClusterStats& cs = cluster.stats();
  const double goodput =
      cs.makespan == 0 ? 0.0
                       : static_cast<double>(completed) /
                             (static_cast<double>(cs.makespan) / 1e6);

  r.row({lv.name, std::to_string(completed), std::to_string(failed),
         std::to_string(timed_out), util::fmt(goodput, 3),
         std::to_string(cs.reforwarded), std::to_string(cs.quarantines),
         std::to_string(cs.dup_dropped), std::to_string(cs.crc_rejects),
         std::to_string(cs.dead_chips), std::to_string(cs.abandoned_jobs)});

  const std::string pfx = std::string("f_") + lv.name + "_";
  r.metric(pfx + "goodput_jobs_per_mcycle", goodput);
  // Goodput alone can *rise* when a crash abandons slow jobs (the
  // makespan denominator shrinks faster than the completed numerator), so
  // the served fraction of the offered stream is the headline figure.
  r.metric(pfx + "completed_fraction",
           offered > 0 ? static_cast<double>(completed) / offered : 0.0);
  r.metric(pfx + "completed", completed);
  r.metric(pfx + "failed", failed);
  r.metric(pfx + "timed_out", timed_out);
  r.metric(pfx + "makespan_mcycles", static_cast<double>(cs.makespan) / 1e6);
  r.metric(pfx + "forwards", cs.forwards);
  r.metric(pfx + "notices", cs.notices);
  r.metric(pfx + "reforwarded", cs.reforwarded);
  r.metric(pfx + "quarantines", cs.quarantines);
  r.metric(pfx + "abandoned_forwards", cs.abandoned);
  r.metric(pfx + "dup_dropped", cs.dup_dropped);
  r.metric(pfx + "crc_rejects", cs.crc_rejects);
  r.metric(pfx + "dead_chips", cs.dead_chips);
  r.metric(pfx + "abandoned_jobs", cs.abandoned_jobs);
  return sched::transcript(cluster);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep s;
  s.bench = "abl_cluster_faults";
  s.title = "epi-serve cluster fault sweep: 2x2 chips, " + std::to_string(kJobs) +
            " jobs/chip/level, traffic seed 42, watchdog 400000 cycles";
  s.columns = {"faults", "done", "fail", "to", "goodput", "refwd", "quar",
               "dup", "crc", "dead", "abandoned"};
  s.note = "(goodput = completed jobs per Mcycle of cluster makespan; "
           "refwd/quar/dup/crc = failover\n re-forwards, peer "
           "quarantines, home-side dedups, rejected notices; cycles at "
           "600 MHz)";
  for (const Level& lv : kLevels) {
    s.points.push_back({std::string("level ") + lv.name,
                        [&lv](bench::Run& r) { return run_level(lv, r); }});
  }
  return bench::run_sweep(s, argc, argv);
}
