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
// Results go to BENCH_cluster_faults.json; the committed copy at the
// repository root is the baseline scripts/bench.sh and CI compare against.
//
// Usage: abl_cluster_faults [jobs_per_chip] [--smoke] [--csv=FILE]
//                           [--metrics=FILE] [--no-metrics]
//
// --smoke: shrink the stream, replay every level once on a fresh cluster
// asserting the observable cluster bytes (report + decision/fault/notice
// logs) are identical, and validate the metrics schema (the ctest entry);
// non-zero exit on any mismatch.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "util/bench_report.hpp"
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

sched::ClusterConfig config_for(const Level& lv, unsigned jobs) {
  sched::ClusterConfig cc;
  cc.chip_rows = 2;
  cc.chip_cols = 2;
  cc.traffic.jobs = jobs;
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

struct LevelResult {
  sched::ClusterStats cstats;
  unsigned jobs_offered = 0;
  unsigned completed = 0;
  unsigned failed = 0;
  unsigned timed_out = 0;
  std::string bytes;  // report + per-chip logs, the determinism surface
};

LevelResult run_level(const Level& lv, unsigned jobs) {
  sched::ClusterScheduler cs(config_for(lv, jobs));
  cs.run();

  LevelResult lr;
  lr.cstats = cs.stats();
  lr.bytes = cs.report();
  for (unsigned c = 0; c < cs.stats().chips; ++c) {
    const sched::RunStats rs = sched::summarise(cs.chip_sched(c));
    lr.jobs_offered += rs.jobs;
    lr.completed += rs.completed;
    lr.failed += rs.failed;
    lr.timed_out += rs.timed_out;
    for (const auto& line : cs.chip_sched(c).event_log()) {
      lr.bytes += line + "\n";
    }
    for (const auto& r : cs.chip_sched(c).fault_log()) {
      lr.bytes += fault::to_line(r) + "\n";
    }
    for (const auto& line : cs.notices(c)) lr.bytes += line + "\n";
  }
  return lr;
}

double goodput(const LevelResult& lr) {
  if (lr.cstats.makespan == 0) return 0.0;
  return static_cast<double>(lr.completed) /
         (static_cast<double>(lr.cstats.makespan) / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = util::BenchArgs::parse(argc, argv, "abl_cluster_faults");
  bool smoke = false;
  for (auto it = args.positional.begin(); it != args.positional.end();) {
    if (*it == "--smoke") {
      smoke = true;
      it = args.positional.erase(it);
    } else {
      ++it;
    }
  }
  if (args.metrics_path == "abl_cluster_faults_trace.json") {
    // Default output name matches the committed baseline (override with
    // --metrics=...).
    args.metrics_path =
        smoke ? "BENCH_cluster_faults_smoke.json" : "BENCH_cluster_faults.json";
  }
  const unsigned jobs =
      static_cast<unsigned>(args.positional_double(0, smoke ? 10 : 20));

  std::cout << "epi-serve cluster fault sweep: 2x2 chips, " << jobs
            << " jobs/chip/level, traffic seed 42, watchdog 400000 cycles\n\n";
  util::Table t({"faults", "done", "fail", "to", "goodput", "refwd", "quar",
                 "dup", "crc", "dead", "abandoned"});

  util::BenchReport report("abl_cluster_faults");
  bool ok = true;
  for (const Level& lv : kLevels) {
    const LevelResult lr = run_level(lv, jobs);
    // Replay is the cluster determinism contract: a second run on a fresh
    // cluster must produce the very same observable bytes.
    if (smoke && run_level(lv, jobs).bytes != lr.bytes) {
      std::fprintf(stderr,
                   "abl_cluster_faults: FAIL: level %s diverged on replay\n",
                   lv.name);
      ok = false;
    }
    const sched::ClusterStats& cs = lr.cstats;
    t.add_row({lv.name, std::to_string(lr.completed),
               std::to_string(lr.failed), std::to_string(lr.timed_out),
               util::fmt(goodput(lr), 3), std::to_string(cs.reforwarded),
               std::to_string(cs.quarantines), std::to_string(cs.dup_dropped),
               std::to_string(cs.crc_rejects), std::to_string(cs.dead_chips),
               std::to_string(cs.abandoned_jobs)});

    const std::string pfx = std::string("f_") + lv.name + "_";
    report.metric(pfx + "goodput_jobs_per_mcycle", goodput(lr));
    // Goodput alone can *rise* when a crash abandons slow jobs (the
    // makespan denominator shrinks faster than the completed numerator), so
    // the served fraction of the offered stream is the headline figure.
    report.metric(pfx + "completed_fraction",
                  lr.jobs_offered > 0
                      ? static_cast<double>(lr.completed) / lr.jobs_offered
                      : 0.0);
    report.metric(pfx + "completed", lr.completed);
    report.metric(pfx + "failed", lr.failed);
    report.metric(pfx + "timed_out", lr.timed_out);
    report.metric(pfx + "makespan_mcycles",
                  static_cast<double>(cs.makespan) / 1e6);
    report.metric(pfx + "forwards", cs.forwards);
    report.metric(pfx + "notices", cs.notices);
    report.metric(pfx + "reforwarded", cs.reforwarded);
    report.metric(pfx + "quarantines", cs.quarantines);
    report.metric(pfx + "abandoned_forwards", cs.abandoned);
    report.metric(pfx + "dup_dropped", cs.dup_dropped);
    report.metric(pfx + "crc_rejects", cs.crc_rejects);
    report.metric(pfx + "dead_chips", cs.dead_chips);
    report.metric(pfx + "abandoned_jobs", cs.abandoned_jobs);
  }
  t.print(std::cout);
  std::cout << "\n(goodput = completed jobs per Mcycle of cluster makespan; "
               "refwd/quar/dup/crc = failover\n re-forwards, peer "
               "quarantines, home-side dedups, rejected notices; cycles at "
               "600 MHz)\n";

  util::finish_bench(args, nullptr, report);

  if (smoke && !args.metrics_path.empty()) {
    // Schema check: goodput and recovery metrics must exist per level.
    std::ifstream in(args.metrics_path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    if (json.find("\"bench\":\"abl_cluster_faults\"") == std::string::npos) {
      std::fprintf(stderr, "abl_cluster_faults: FAIL: %s missing bench name\n",
                   args.metrics_path.c_str());
      ok = false;
    }
    for (const Level& lv : kLevels) {
      for (const char* key :
           {"goodput_jobs_per_mcycle", "completed_fraction", "reforwarded",
            "quarantines", "dead_chips"}) {
        const std::string want =
            std::string("\"f_") + lv.name + "_" + key + "\":";
        if (json.find(want) == std::string::npos) {
          std::fprintf(stderr,
                       "abl_cluster_faults: FAIL: %s missing metric %s\n",
                       args.metrics_path.c_str(), want.c_str());
          ok = false;
        }
      }
    }
    std::cout << (ok ? "\nsmoke: PASS (cluster bytes identical on replay "
                       "at every level; metrics schema valid)\n"
                     : "\nsmoke: FAIL\n");
  }
  return ok ? 0 : 1;
}
