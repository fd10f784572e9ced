// epi-serve: replay a multi-tenant job workload against the simulated 8x8
// mesh and report what the scheduler did with it.
//
// With --spec=FILE the workload is read from a workload-spec text file (see
// src/sched/workload.hpp for the format); otherwise a seeded stream is
// generated, and --spec-out can save it for later byte-identical replays.
//
// Usage:
//   epi_serve [options]
//     --spec=FILE        replay a workload spec instead of generating one
//     --jobs=N           generated stream length            (default 60)
//     --seed=S           traffic seed                       (default 1)
//     --interarrival=C   mean cycles between arrivals       (default 30000)
//     --queue=N          admission queue capacity           (default 64)
//     --pipelines=F      fraction of generated requests drawn as multi-kernel
//                        pipelines (job graphs with tensor handoffs between
//                        stages; see src/sched/dag.hpp)       (default 0)
//     --spec-out=FILE    write the workload spec that was run
//     --report=FILE      write the run report to FILE as well as stdout
//     --log              print the scheduler's decision log
//     --trace=FILE       Perfetto trace of the whole serving run
//     --plan=FILE        arm a fault-injection plan (see src/fault/plan.hpp);
//                        the watchdog defaults on (400000 cycles) so silent
//                        stalls become FaultReports instead of deadlocks
//     --watchdog=C       per-job silence budget in cycles (0 disables)
//     --strict           exit non-zero if any job ends with a Failed verdict
//                        (default: failures are reported but tolerated --
//                        a degraded chip keeps serving)
//     --selftest         run the workload twice on fresh machines and fail
//                        unless reports and decision logs are byte-identical
//                        (also asserts >=3 workgroups were resident at once)
//     --lint=MODE        admission-time static verification of custom jobs:
//                        off (default), warn (log findings, admit anyway), or
//                        strict (reject jobs with error-severity findings
//                        before placement)
//     --asm=F1[,F2...]   serve the given eCore .s files as one custom job
//                        instead of a generated stream (1 file replicates
//                        SPMD-style; else give rows*cols files in row-major
//                        order)
//     --asm-shape=RxC    workgroup shape for --asm              (default 1x1)
//     --verify-selftest  admission-gate selftest: under --lint=strict the
//                        statically-racy fixtures (Listing-1/2 and the
//                        epi-shmem get-before-signal consumer) must be
//                        rejected with wg-race verdicts and their clean twins
//                        must complete, deterministically across two runs
//
// Cluster (multi-chip xMesh) mode -- each chip is one conservative-PDES
// domain with its own engine and scheduler, advanced in shared windows:
//     --chips=RxC        serve an RxC chip grid (up to 8x8) instead of one
//                        chip; each chip gets its own seeded stream of
//                        --jobs jobs and a --remote-frac fraction is
//                        forwarded over the xMesh bridge to another chip's
//                        scheduler
//     --remote-frac=F    fraction of each chip's stream homed off-chip
//                        (default 0.25)
//     --selftest         in cluster mode: run the same configuration twice
//                        and fail unless the reports are byte-identical
//     --plan=FILE        in cluster mode: a cluster fault plan (`chips RxC`
//                        grammar) -- chip-crash/chip-stall/xmesh/notice
//                        faults arm the failover stack (heartbeat watchdogs,
//                        quarantine, re-forwarding with idempotent dedup);
//                        chip-tagged machine faults go to that chip's
//                        injector. Recovery decisions land in the report.
//     --trace=FILE       in cluster mode: Perfetto trace with one process
//                        per chip (per-chip sched.cluster.chipN.* counters
//                        land on that chip's counter track)
//
// Generated streams mix matmul, stencil, DRAM-window offload, and the
// epi-shmem cannon/transpose PGAS workloads (see src/sched/workload.hpp).
//
// Numeric values are parsed strictly (tools/cli.hpp): a malformed, signed
// or out-of-range value exits with status 2 and names the flag.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "lint/wg_fixtures.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "cli.hpp"

namespace {

using namespace epi;

struct Options {
  std::string spec_path;
  unsigned jobs = 60;
  std::uint64_t seed = 1;
  sim::Cycles interarrival = 30'000;
  std::size_t queue = 64;
  std::string spec_out;
  std::string report_path;
  std::string trace_path;
  std::string plan_path;
  sim::Cycles watchdog = 0;
  bool watchdog_set = false;
  bool strict = false;
  bool print_log = false;
  bool selftest = false;
  sched::LintMode lint = sched::LintMode::Off;
  std::string asm_files;       // comma-separated .s paths for one custom job
  unsigned asm_rows = 1, asm_cols = 1;
  bool verify_selftest = false;
  unsigned chip_rows = 0, chip_cols = 0;  // 0 = single-chip mode
  double remote_frac = 0.25;
  double pipelines = 0.0;
};

using cli::value_flag;

struct RunOutput {
  std::string report;
  std::vector<std::string> log;
  std::vector<std::string> fault_log;
  unsigned peak_resident = 0;
  unsigned unresolved = 0;
  unsigned failed = 0;
  std::vector<std::string> rejected;  // "job N: detail" per rejected job
};

RunOutput run_once(const std::vector<sched::JobSpec>& jobs, const Options& opt,
                   bool trace) {
  host::System sys;
  if (trace) sys.machine().enable_tracing();
  if (!opt.plan_path.empty()) {
    sys.machine().enable_faults(fault::load_file(opt.plan_path));
  }
  sched::SchedConfig cfg;
  cfg.queue_capacity = opt.queue;
  cfg.lint = opt.lint;
  // With a plan armed, silent stalls are expected: default the watchdog on
  // so they become FaultReports instead of an engine deadlock.
  cfg.watchdog_cycles =
      opt.watchdog_set ? opt.watchdog : (opt.plan_path.empty() ? 0 : 400'000);
  sched::Scheduler sc(sys, cfg);
  for (const auto& spec : jobs) sc.submit(spec);
  sc.run();

  RunOutput out;
  out.report = sched::render_report(sc);
  out.log = sc.event_log();
  for (const auto& r : sc.fault_log()) out.fault_log.push_back(fault::to_line(r));
  out.peak_resident = sc.peak_resident();
  for (const auto& rec : sc.records()) {
    if (rec.verdict == sched::Verdict::Pending) ++out.unresolved;
    if (rec.verdict == sched::Verdict::Failed) ++out.failed;
    if (rec.verdict == sched::Verdict::Rejected) {
      out.rejected.push_back("job " + std::to_string(rec.spec.id) + ": " +
                             rec.detail);
    }
  }
  if (trace && !opt.trace_path.empty()) {
    std::ofstream os(opt.trace_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write trace file: " + opt.trace_path);
    trace::write_chrome_trace(os, *sys.machine().tracer());
  }
  return out;
}

/// One custom job from comma-separated .s paths.
sched::JobSpec custom_job(const std::string& files, unsigned rows, unsigned cols) {
  sched::JobSpec s;
  s.kind = sched::JobKind::Custom;
  s.rows = rows;
  s.cols = cols;
  std::size_t start = 0;
  while (start <= files.size()) {
    const auto comma = files.find(',', start);
    const std::string path =
        files.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (!path.empty()) {
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open program: " + path);
      std::ostringstream text;
      text << in.rdbuf();
      s.programs.emplace_back(path, text.str());
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (s.programs.empty()) throw std::runtime_error("--asm names no programs");
  return s;
}

/// Admission-gate selftest: the statically-racy fixtures -- the Listing-1/2
/// read-without-wait and the epi-shmem get-before-signal consumer -- must be
/// rejected under strict lint with wg-race verdicts; their clean twins (the
/// same protocols with the flag wait) must be admitted and complete; and two
/// runs must be byte-identical. Returns the exit status.
int verify_selftest() {
  const auto job_of = [](const lint::fixtures::WgFixture& fx, std::uint32_t id) {
    sched::JobSpec s;
    s.id = id;
    s.kind = sched::JobKind::Custom;
    s.rows = fx.rows;
    s.cols = fx.cols;
    s.programs = fx.programs;
    return s;
  };
  const auto run = [&]() {
    host::System sys;
    sched::SchedConfig cfg;
    cfg.lint = sched::LintMode::Strict;
    sched::Scheduler sc(sys, cfg);
    sc.submit(job_of(lint::fixtures::listing12(/*racy=*/true), 1));
    sc.submit(job_of(lint::fixtures::listing12(/*racy=*/false), 2));
    sc.submit(job_of(lint::fixtures::shmem_put_signal(/*racy=*/true), 3));
    sc.submit(job_of(lint::fixtures::shmem_put_signal(/*racy=*/false), 4));
    sc.run();
    return std::make_pair(sc.records(), sc.event_log());
  };

  const auto [records, log] = run();
  bool ok = true;
  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    const auto& racy = records[r];
    const auto& clean = records[r + 1];
    const char* what = r == 0 ? "listing12" : "shmem_put_signal";
    if (racy.verdict != sched::Verdict::Rejected) {
      std::fprintf(
          stderr,
          "verify-selftest: FAIL: racy %s job verdict is %s, want rejected\n",
          what, sched::to_string(racy.verdict));
      ok = false;
    } else if (racy.detail.find("wg-race") == std::string::npos) {
      std::fprintf(stderr,
                   "verify-selftest: FAIL: racy %s job's verdict names no "
                   "wg-race finding: %s\n",
                   what, racy.detail.c_str());
      ok = false;
    }
    if (clean.verdict != sched::Verdict::Completed) {
      std::fprintf(stderr,
                   "verify-selftest: FAIL: clean %s job verdict is %s (%s), "
                   "want completed\n",
                   what, sched::to_string(clean.verdict), clean.detail.c_str());
      ok = false;
    }
  }
  const auto [records2, log2] = run();
  if (log2 != log) {
    std::fprintf(stderr, "verify-selftest: FAIL: decision logs differ between "
                         "two identical runs\n");
    ok = false;
  }
  for (std::size_t i = 0; ok && i < records.size(); ++i) {
    if (records2[i].verdict != records[i].verdict ||
        records2[i].detail != records[i].detail) {
      std::fprintf(stderr, "verify-selftest: FAIL: verdicts differ between two "
                           "identical runs\n");
      ok = false;
    }
  }
  if (ok) {
    std::printf(
        "verify-selftest: PASS (racy listing12: %s; racy shmem_put_signal: "
        "%s)\n",
        records[0].detail.c_str(), records[2].detail.c_str());
  }
  return ok ? 0 : 1;
}

/// Cluster mode: serve an RxC chip grid through the conservative PDES
/// window loop. --selftest reruns the same configuration on fresh chips and
/// compares the report bytes.
int run_cluster(const Options& opt) {
  if (!opt.spec_path.empty() || !opt.asm_files.empty()) {
    std::fprintf(stderr,
                 "epi_serve: --spec/--asm are single-chip flags; cluster "
                 "mode generates its own per-chip streams\n");
    return 2;
  }
  sched::ClusterConfig cc;
  cc.chip_rows = opt.chip_rows;
  cc.chip_cols = opt.chip_cols;
  cc.traffic.jobs = opt.jobs;
  cc.traffic.seed = opt.seed;
  cc.traffic.mean_interarrival = opt.interarrival;
  cc.traffic.pipeline_frac = opt.pipelines;
  cc.sched.queue_capacity = opt.queue;
  cc.sched.lint = opt.lint;
  // In cluster mode --plan carries the cluster grammar (`chips RxC` plus
  // chip-scoped faults, see src/fault/plan.hpp); chip-tagged machine faults
  // arm the per-job watchdog by default, same as single-chip plans do.
  if (!opt.plan_path.empty()) cc.cluster_plan = fault::load_file(opt.plan_path);
  if (opt.watchdog_set) {
    cc.sched.watchdog_cycles = opt.watchdog;
  } else if (!opt.plan_path.empty()) {
    cc.sched.watchdog_cycles = 400'000;
  }
  cc.remote_frac = opt.remote_frac;
  cc.trace = !opt.trace_path.empty();

  const auto serve = [&cc, &opt](double* wall_ms) {
    sched::ClusterScheduler cs(cc);
    const auto t0 = std::chrono::steady_clock::now();
    cs.run();
    const auto t1 = std::chrono::steady_clock::now();
    if (wall_ms != nullptr) {
      *wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      // Only the measured (first) run exports the trace.
      if (cc.trace) {
        std::ofstream os(opt.trace_path, std::ios::binary | std::ios::trunc);
        if (!os) {
          throw std::runtime_error("cannot write trace file: " +
                                   opt.trace_path);
        }
        cs.write_trace(os);
      }
    }
    return cs.report();
  };

  std::cout << "serving a " << opt.chip_rows << "x" << opt.chip_cols
            << " chip grid: " << opt.jobs << " jobs/chip (seed " << opt.seed
            << "), remote-frac " << opt.remote_frac << "\n\n";
  double wall = 0.0;
  const std::string report = serve(&wall);
  std::cout << report;
  // Timing is narrative only -- never part of the report bytes.
  std::printf("\nwall-clock: %.1f ms\n", wall);
  if (!opt.report_path.empty()) {
    std::ofstream os(opt.report_path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write report: " + opt.report_path);
    os << report;
  }
  if (opt.selftest) {
    const bool ok = serve(nullptr) == report;
    if (!ok) {
      std::fprintf(stderr, "epi_serve: FAIL: cluster reports differ between "
                           "two identical runs\n");
    }
    std::cout << (ok ? "\nselftest: PASS (byte-identical cluster reports "
                       "across two identical runs)\n"
                     : "\nselftest: FAIL\n");
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string val;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (value_flag(arg, "--spec", opt.spec_path) ||
          value_flag(arg, "--spec-out", opt.spec_out) ||
          value_flag(arg, "--report", opt.report_path) ||
          value_flag(arg, "--trace", opt.trace_path) ||
          value_flag(arg, "--plan", opt.plan_path) ||
          value_flag(arg, "--asm", opt.asm_files) ||
          cli::uint_flag(arg, "--jobs", opt.jobs, 1, cli::kMaxJobs) ||
          cli::uint_flag(arg, "--seed", opt.seed, 0, cli::kMaxSeed) ||
          cli::uint_flag(arg, "--interarrival", opt.interarrival, 0,
                         cli::kMaxCycles) ||
          cli::uint_flag(arg, "--queue", opt.queue, 1, cli::kMaxJobs) ||
          cli::fraction_flag(arg, "--remote-frac", opt.remote_frac) ||
          cli::fraction_flag(arg, "--pipelines", opt.pipelines) ||
          cli::grid_flag(arg, "--chips", opt.chip_rows, opt.chip_cols, 8) ||
          cli::grid_flag(arg, "--asm-shape", opt.asm_rows, opt.asm_cols, 8)) {
        continue;
      }
      if (cli::uint_flag(arg, "--watchdog", opt.watchdog, 0, cli::kMaxCycles)) {
        opt.watchdog_set = true;
        continue;
      }
      if (arg == "--strict") { opt.strict = true; continue; }
      if (arg == "--log") { opt.print_log = true; continue; }
      if (arg == "--selftest") { opt.selftest = true; continue; }
      if (arg == "--verify-selftest") { opt.verify_selftest = true; continue; }
      if (value_flag(arg, "--lint", val)) {
        if (val == "off") opt.lint = sched::LintMode::Off;
        else if (val == "warn") opt.lint = sched::LintMode::Warn;
        else if (val == "strict") opt.lint = sched::LintMode::Strict;
        else throw cli::UsageError("--lint needs off|warn|strict");
        continue;
      }
      throw cli::UsageError("unknown argument '" + std::string(arg) +
                            "' (see the header of tools/epi_serve.cpp)");
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "epi_serve: %s\n", e.what());
    return 2;
  }

  if (opt.verify_selftest) {
    try {
      return verify_selftest();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "epi_serve: verify-selftest error: %s\n", e.what());
      return 1;
    }
  }

  if (opt.chip_rows != 0) {
    try {
      return run_cluster(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "epi_serve: error: %s\n", e.what());
      return 1;
    }
  }

  try {
    std::vector<sched::JobSpec> jobs;
    if (!opt.asm_files.empty()) {
      jobs.push_back(custom_job(opt.asm_files, opt.asm_rows, opt.asm_cols));
      std::cout << "serving " << jobs[0].programs.size()
                << " custom program(s) as a " << opt.asm_rows << "x"
                << opt.asm_cols << " workgroup (lint=" << to_string(opt.lint)
                << ")\n\n";
    } else if (!opt.spec_path.empty()) {
      jobs = sched::load_file(opt.spec_path);
      std::cout << "replaying " << jobs.size() << " jobs from " << opt.spec_path
                << "\n\n";
    } else {
      sched::TrafficConfig tc;
      tc.jobs = opt.jobs;
      tc.seed = opt.seed;
      tc.mean_interarrival = opt.interarrival;
      tc.pipeline_frac = opt.pipelines;
      jobs = sched::generate(tc);
      std::cout << "generated " << jobs.size() << " jobs (seed " << opt.seed
                << ", mean interarrival " << opt.interarrival << " cycles)\n\n";
    }
    if (!opt.spec_out.empty()) {
      std::ofstream os(opt.spec_out, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write spec: " + opt.spec_out);
      os << sched::save(jobs);
    }

    const RunOutput first = run_once(jobs, opt, !opt.trace_path.empty());
    std::cout << first.report;
    if (!first.fault_log.empty()) {
      std::cout << "\n-- fault log --\n";
      for (const auto& line : first.fault_log) std::cout << line << "\n";
    }
    if (opt.print_log) {
      std::cout << "\n-- decision log --\n";
      for (const auto& line : first.log) std::cout << line << "\n";
    }
    if (!opt.report_path.empty()) {
      std::ofstream os(opt.report_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write report: " + opt.report_path);
      os << first.report;
    }
    if (!opt.trace_path.empty()) {
      std::cout << "\nWrote Perfetto trace to " << opt.trace_path
                << " (open at ui.perfetto.dev; ts is in cycles)\n";
    }

    if (first.unresolved != 0) {
      std::fprintf(stderr, "epi_serve: FAIL: %u jobs left without a verdict\n",
                   first.unresolved);
      return 1;
    }
    if (!opt.asm_files.empty() && !first.rejected.empty()) {
      for (const auto& line : first.rejected) {
        std::fprintf(stderr, "epi_serve: rejected: %s\n", line.c_str());
      }
      return 1;
    }
    if (opt.strict && first.failed != 0) {
      std::fprintf(stderr, "epi_serve: --strict: %u jobs failed\n", first.failed);
      return 1;
    }

    if (opt.selftest) {
      const RunOutput second = run_once(jobs, opt, false);
      bool ok = true;
      if (second.report != first.report) {
        std::fprintf(stderr, "epi_serve: FAIL: reports differ between two "
                             "identical runs\n");
        ok = false;
      }
      if (second.log != first.log) {
        std::fprintf(stderr, "epi_serve: FAIL: decision logs differ between "
                             "two identical runs\n");
        ok = false;
      }
      if (second.fault_log != first.fault_log) {
        std::fprintf(stderr, "epi_serve: FAIL: fault logs differ between two "
                             "identical runs\n");
        ok = false;
      }
      if (first.peak_resident < 3) {
        std::fprintf(stderr,
                     "epi_serve: FAIL: expected >=3 concurrently resident "
                     "workgroups, saw %u\n",
                     first.peak_resident);
        ok = false;
      }
      std::cout << (ok ? "\nselftest: PASS (byte-identical reports and logs; "
                       : "\nselftest: FAIL (")
                << "peak resident groups " << first.peak_resident << ")\n";
      return ok ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_serve: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
