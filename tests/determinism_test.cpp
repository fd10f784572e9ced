// Golden determinism tests: exact cycle counts for small end-to-end runs.
//
// The simulator's contract is bit-for-bit reproducibility: events fire in
// (time, insertion-sequence) order, so the same experiment produces the
// same cycle count on every machine, every run, forever. These tests pin
// small representative scenarios to golden values captured from the seed
// implementation (single global event heap, polling joins, element-wise
// DMA commits). Any engine or model change that shifts an event -- a queue
// reordering, a coalesced commit landing a cycle early, a wake-up lost or
// duplicated -- shows up here as a hard failure, not as a silent drift in
// the paper-facing tables.
//
// If one of these values ever changes *intentionally* (a deliberate timing
// model change), re-run the affected scenario and update the golden -- and
// expect every EXPERIMENTS.md table to need regeneration too.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/matmul.hpp"
#include "core/microbench.hpp"
#include "core/stencil.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "lint/wg_fixtures.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "shmem/shmem.hpp"
#include "shmem/workloads.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace {

using namespace epi;

// FNV-1a over the engine's firing order: (now, id) per resume. Any change
// in event order -- including ties broken differently -- changes the hash.
std::uint64_t order_hash(const std::vector<std::pair<sim::Cycles, int>>& log) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [t, id] : log) {
    for (std::uint64_t v : {static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(id)}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// Mixed near/far delays crossing the engine's near-future window boundary
// in both directions, plus same-cycle ties. Pins the (time, seq) drain
// order of the full queue, not just the common short-delay path.
TEST(GoldenDeterminism, EventOrderAcrossQueueTiers) {
  sim::Engine e;
  std::vector<std::pair<sim::Cycles, int>> log;
  static constexpr sim::Cycles kDelays[] = {3, 1, 4096, 7, 5000, 3, 0, 4095, 12000, 7};
  for (int i = 0; i < 40; ++i) {
    sim::spawn(e, [](sim::Engine& eng, std::vector<std::pair<sim::Cycles, int>>& l,
                     int id) -> sim::Op<void> {
      for (int k = 0; k < 10; ++k) {
        co_await sim::delay(eng, kDelays[(id + k) % 10]);
        l.emplace_back(eng.now(), id);
      }
    }(e, log, i));
  }
  e.run();
  EXPECT_EQ(log.size(), 400u);
  EXPECT_EQ(order_hash(log), 13207175386689502891ull);
  EXPECT_EQ(e.events_processed(), 400u);
  EXPECT_EQ(e.now(), 25212u);
}

// 2x2-core 8x8-per-core stencil, 5 iterations: full halo-exchange protocol
// (flag spins, posted stores, barriers) over the on-chip mesh.
TEST(GoldenDeterminism, SmallStencilCycles) {
  host::System sys;
  core::StencilConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.iters = 5;
  const auto ex = core::run_stencil_experiment(sys, 2, 2, cfg, 1, true);
  EXPECT_TRUE(ex.verified);
  EXPECT_EQ(ex.result.cycles, 7155u);
}

// 2x2-core Cannon matmul with 8x8 blocks: DMA block rotation + barriers.
TEST(GoldenDeterminism, OnChipMatmulCycles) {
  host::System sys;
  const auto r = core::run_matmul_onchip(sys, 2, 8, core::Codegen::TunedAsm, 1, true);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.cycles, 2781u);
}

// 2x2 cores saturating the eLink with 2 KB external writes for 1 ms of
// simulated time: cascaded weighted arbitration under contention. The
// position-dependent per-node iteration counts are the paper's Table II
// signature and are exquisitely sensitive to grant order.
TEST(GoldenDeterminism, ElinkContentionIterations) {
  host::System sys;
  const auto res = core::measure_elink_contention(sys, 2, 2, 2048, 0.001);
  ASSERT_EQ(res.nodes.size(), 4u);
  std::vector<std::uint64_t> iters;
  for (const auto& n : res.nodes) iters.push_back(n.iterations);
  EXPECT_EQ(iters, (std::vector<std::uint64_t>{37, 18, 12, 6}));
}

// epi-shmem end to end: a 2x2 Cannon matmul over put_with_signal rotation
// plus barriers, replayed from the same seed in a fresh System. The replay
// must be byte-identical (FNV-1a over every PE's C block) and land on the
// same cycle -- the flag-generation protocols, the chained signal
// descriptors, and the dissemination barrier all drain through the one
// event queue, so any nondeterminism shows up as a hash or cycle drift.
TEST(GoldenDeterminism, ShmemCannonSameSeedReplay) {
  auto run_once = [](std::uint64_t& out_hash) -> sim::Cycles {
    host::System sys;
    auto wg = sys.open(0, 0, 2, 2);
    auto group = std::make_shared<shmem::Group>(sys.machine(), wg.info());
    const auto plan = shmem::plan_cannon(group->heap(), wg.info(), 8, 2);
    shmem::fill_cannon_inputs(sys.machine(), wg.info(), plan, 2026);
    wg.load([group, plan](device::CoreCtx& ctx) -> sim::Op<void> {
      return shmem::cannon_kernel(ctx, group, plan);
    });
    wg.run();
    EXPECT_EQ(shmem::verify_cannon_output(sys.machine(), wg.info(), plan, 2026),
              "");
    std::uint64_t h = 1469598103934665603ull;
    const auto& map = sys.machine().mem().map();
    for (unsigned pe = 0; pe < group->n_pes(); ++pe) {
      for (std::uint32_t off = 0; off < plan.block * plan.block * 4; off += 4) {
        std::uint32_t w = 0;
        sys.read(map.global(group->coord_of(pe), plan.c + off),
                 std::as_writable_bytes(std::span<std::uint32_t, 1>(&w, 1)));
        for (int b = 0; b < 4; ++b) {
          h ^= (w >> (8 * b)) & 0xff;
          h *= 1099511628211ull;
        }
      }
    }
    out_hash = h;
    return sys.machine().engine().now();
  };
  std::uint64_t h1 = 0, h2 = 0;
  const sim::Cycles c1 = run_once(h1);
  const sim::Cycles c2 = run_once(h2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(h1, 6834394640293651171ull);
  EXPECT_EQ(c1, 9964u);
}

// The fault injector's contract is that it is *passive*: arming an empty
// plan hooks every layer (core timed ops, mesh routing, both eLinks, DMA,
// memory writes) yet must not move a single event. The same goldens as
// above, byte-for-byte, with the hooks installed.

TEST(GoldenDeterminism, SmallStencilCyclesWithEmptyFaultPlan) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});
  core::StencilConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.iters = 5;
  const auto ex = core::run_stencil_experiment(sys, 2, 2, cfg, 1, true);
  EXPECT_TRUE(ex.verified);
  EXPECT_EQ(ex.result.cycles, 7155u);
}

TEST(GoldenDeterminism, OnChipMatmulCyclesWithEmptyFaultPlan) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});
  const auto r = core::run_matmul_onchip(sys, 2, 8, core::Codegen::TunedAsm, 1, true);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.cycles, 2781u);
}

TEST(GoldenDeterminism, ElinkContentionIterationsWithEmptyFaultPlan) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});
  const auto res = core::measure_elink_contention(sys, 2, 2, 2048, 0.001);
  ASSERT_EQ(res.nodes.size(), 4u);
  std::vector<std::uint64_t> iters;
  for (const auto& n : res.nodes) iters.push_back(n.iterations);
  EXPECT_EQ(iters, (std::vector<std::uint64_t>{37, 18, 12, 6}));
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- single-chip serving ---------------------------------------------------
//
// The scheduler's decision log is part of its contract: every admit, place,
// retry, timeout, head-block and fault line, in order. These scenarios pin
// fnv1a(report + decision log + fault log) for one chip, one per policy
// path, so a change to when or how the policy passes run cannot move a
// single decision without failing here.

// Everything observable from a single-chip serving run.
std::string serve_bytes(const sched::Scheduler& sc) {
  std::string all = sched::render_report(sc);
  for (const auto& line : sc.event_log()) all += line + "\n";
  for (const auto& r : sc.fault_log()) all += fault::to_line(r) + "\n";
  return all;
}

std::size_t log_lines_with(const sched::Scheduler& sc, const char* what) {
  std::size_t n = 0;
  for (const auto& line : sc.event_log()) {
    n += line.find(what) != std::string::npos ? 1 : 0;
  }
  return n;
}

// abl_sched's overload shape: arrivals outpace service, the admission queue
// fills, priorities age and a starving head blocks backfill on every pass.
sched::TrafficConfig overload_traffic() {
  sched::TrafficConfig tc;
  tc.jobs = 300;
  tc.seed = 42;
  tc.mean_interarrival = 12'000;
  return tc;
}

TEST(GoldenDeterminism, ServeOverloadAgingAndHeadBlock) {
  host::System sys;
  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(overload_traffic())) sc.submit(std::move(spec));
  sc.run();
  EXPECT_GT(log_lines_with(sc, " head-block "), 0u);
  EXPECT_GT(log_lines_with(sc, " reject "), 0u);
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 15127138766402273350ull);
}

// The policy sweeps run on state changes and horizons, not once per engine
// event: between them each step replays the last pass (re-logging its
// head-block line). Guards the saving, which the golden above cannot see.
TEST(GoldenDeterminism, ServeOverloadPassesAreEventDriven) {
  host::System sys;
  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(overload_traffic())) sc.submit(std::move(spec));
  sc.run();
  const auto& passes = sc.passes();
  const std::size_t steps = sys.engine().events_processed();
  EXPECT_GT(passes.full, 0u);
  EXPECT_GE(passes.full + passes.cached, steps);
  EXPECT_LT(passes.full * 10, steps)
      << passes.full << " full passes for " << steps << " engine events";
}

// Injected launch failures on a third of the jobs (exponential-backoff
// retries) and a short queue timeout, so both paths fire in one stream.
TEST(GoldenDeterminism, ServeLaunchRetriesAndTimeouts) {
  sched::TrafficConfig tc;
  tc.jobs = 80;
  tc.seed = 5;
  tc.mean_interarrival = 15'000;
  tc.fail_prob = 0.35;
  tc.timeout = 300'000;
  host::System sys;
  sched::Scheduler sc(sys);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  EXPECT_GT(log_lines_with(sc, " launch-fail "), 0u);
  EXPECT_GT(log_lines_with(sc, " timeout "), 0u);
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 14234782603428984755ull);
}

// Pipelines serialised graph by graph (the abl_dag baseline), with the
// scratchpad handoff enabled.
TEST(GoldenDeterminism, ServePipelinesSerialisedWithScratchHandoff) {
  sched::TrafficConfig tc;
  tc.jobs = 40;
  tc.seed = 11;
  tc.mean_interarrival = 20'000;
  tc.pipeline_frac = 0.6;
  sched::SchedConfig cfg;
  cfg.pipeline_overlap = false;
  cfg.scratch_handoff = true;
  host::System sys;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  EXPECT_GT(log_lines_with(sc, " handoff "), 0u);
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 8146954803341702387ull);
}

// Custom jobs through the admission-time lint gate in warn mode: racy
// programs are logged and admitted, mixed into generated traffic.
TEST(GoldenDeterminism, ServeLintWarnCustomJobs) {
  sched::TrafficConfig tc;
  tc.jobs = 20;
  tc.seed = 3;
  tc.mean_interarrival = 25'000;
  sched::SchedConfig cfg;
  cfg.lint = sched::LintMode::Warn;
  host::System sys;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  for (std::uint32_t i = 0; i < 6; ++i) {
    const auto fx = i % 3 == 2 ? lint::fixtures::barrier_exchange()
                               : lint::fixtures::listing12(/*racy=*/i % 3 == 0);
    sched::JobSpec s;
    s.id = 1000 + i;
    s.tenant = "dave";
    s.kind = sched::JobKind::Custom;
    s.rows = fx.rows;
    s.cols = fx.cols;
    s.arrival = 40'000 * i;
    s.programs = fx.programs;
    sc.submit(std::move(s));
  }
  sc.run();
  EXPECT_GT(log_lines_with(sc, " lint-warn "), 0u);
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 17764332830629029129ull);
}

// Watchdog armed under a seeded chaos plan: stalls, link outages and memory
// flips turn into fault reports, quarantines and re-executions.
TEST(GoldenDeterminism, ServeWatchdogUnderChaosPlan) {
  sched::TrafficConfig tc;
  tc.jobs = 40;
  tc.seed = 8;
  tc.mean_interarrival = 20'000;
  fault::ChaosConfig chaos;
  chaos.seed = 21;
  chaos.core_stalls = 2;
  chaos.core_kills = 1;
  chaos.link_faults = 2;
  chaos.mem_flips = 2;
  host::System sys;
  sys.machine().enable_faults(fault::generate(chaos));
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 400'000;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  EXPECT_FALSE(sc.fault_log().empty());
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 10972818334702173703ull);
}

// A silence budget far shorter than any job, so running jobs sit past
// their watchdog horizon, under permanent mesh-link failures: a kernel
// whose route is severed throws, and the watchdog must trip the wrecked
// group in the very cycle of the throw, not one cycle later.
TEST(GoldenDeterminism, ServeWatchdogTripsWreckedGroupInSameCycle) {
  sched::TrafficConfig tc;
  tc.jobs = 40;
  tc.seed = 1;
  tc.mean_interarrival = 10'000;
  fault::ChaosConfig chaos;
  chaos.seed = 1;
  chaos.link_faults = 3;
  chaos.transient_link_prob = 0.0;
  host::System sys;
  sys.machine().enable_faults(fault::generate(chaos));
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 200;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  EXPECT_FALSE(sc.fault_log().empty());
  EXPECT_EQ(fnv1a(serve_bytes(sc)), 1817491458113101221ull);
}

// ---- multi-chip (PDES) cluster serving -------------------------------------
//
// The cluster contract: the cluster report, every chip's decision log, and
// the cross-chip notice logs are byte-identical from run to run. Each
// scenario below runs twice on fresh chips, compares the full byte streams,
// and pins their FNV-1a hash so any drift in the window schedule or merge
// order fails loudly here.

// Everything observable from a cluster run, concatenated: report bytes,
// per-chip decision logs, per-chip fault logs, per-chip notice logs.
std::string cluster_bytes(const sched::ClusterConfig& cfg) {
  sched::ClusterScheduler cs(cfg);
  cs.run();
  std::string all = cs.report();
  for (unsigned c = 0; c < cs.stats().chips; ++c) {
    for (const auto& line : cs.chip_sched(c).event_log()) all += line + "\n";
    for (const auto& r : cs.chip_sched(c).fault_log()) {
      all += fault::to_line(r) + "\n";
    }
    for (const auto& line : cs.notices(c)) all += line + "\n";
  }
  return all;
}

void expect_replay_golden(const sched::ClusterConfig& cfg,
                          std::uint64_t golden) {
  const std::string ref = cluster_bytes(cfg);
  EXPECT_EQ(cluster_bytes(cfg), ref);
  EXPECT_EQ(fnv1a(ref), golden);
}

sched::ClusterConfig small_cluster() {
  sched::ClusterConfig cfg;
  cfg.chip_rows = 2;
  cfg.chip_cols = 2;
  cfg.traffic.jobs = 6;
  cfg.traffic.seed = 7;
  cfg.traffic.mean_interarrival = 50'000;
  cfg.remote_frac = 0.3;
  return cfg;
}

// Mixed serving traffic (matmul/stencil/offload/shmem kinds), clean chips.
TEST(GoldenDeterminism, ClusterServeParallelInvariance) {
  expect_replay_golden(small_cluster(), 10252299936465896053ull);
}

// Comm-bound epi-shmem traffic only (cannon + transpose): the PGAS flag
// protocols and chained signal DMA all inside PDES windows.
TEST(GoldenDeterminism, ClusterShmemMixParallelInvariance) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.traffic.matmul_weight = 0;
  cfg.traffic.stencil_weight = 0;
  cfg.traffic.offload_weight = 0;
  cfg.traffic.cannon_weight = 2;
  cfg.traffic.transpose_weight = 2;
  cfg.traffic.seed = 9;
  expect_replay_golden(cfg, 13678313535663572526ull);
}

// Per-chip chaos plans with the watchdog armed: stalls, link outages and
// write corruption become FaultReports and re-executions, and that whole
// recovery story must still replay byte for byte.
TEST(GoldenDeterminism, ClusterServeWithFaultsParallelInvariance) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.sched.watchdog_cycles = 400'000;
  for (unsigned c = 0; c < 4; ++c) {
    fault::ChaosConfig chaos;
    chaos.seed = 100 + c;
    chaos.core_stalls = 1;
    chaos.link_faults = 1;
    chaos.mem_flips = 1;
    cfg.fault_plans.push_back(fault::generate(chaos));
  }
  expect_replay_golden(cfg, 74659777904851189ull);
}

// Pipelined (job-graph) traffic: multi-stage requests with per-graph routing,
// co-placement, tensor handoffs over both transports, and stage overlap --
// the whole epi-dag story must replay byte for byte too.
TEST(GoldenDeterminism, ClusterPipelineParallelInvariance) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.traffic.jobs = 10;
  cfg.traffic.seed = 13;
  cfg.traffic.pipeline_frac = 0.5;
  expect_replay_golden(cfg, 2654938591465841575ull);
}

// Arming empty per-chip plans hooks every layer but must not move a single
// event: identical bytes to the no-plan run.
TEST(GoldenDeterminism, ClusterServeEmptyFaultPlansAreFree) {
  const std::string ref = cluster_bytes(small_cluster());
  sched::ClusterConfig armed = small_cluster();
  armed.fault_plans.assign(4, fault::FaultPlan{});
  EXPECT_EQ(cluster_bytes(armed), ref);
}

// Same guarantee for the cluster-scoped plan path: a `chips 2x2` plan with
// no events constructs the ClusterInjector but must not arm failover or
// move a single event.
TEST(GoldenDeterminism, ClusterServeEmptyClusterPlanIsFree) {
  const std::string ref = cluster_bytes(small_cluster());
  sched::ClusterConfig armed = small_cluster();
  std::istringstream plan("seed 1\nchips 2x2\n");
  armed.cluster_plan = fault::parse(plan, "empty");
  EXPECT_EQ(cluster_bytes(armed), ref);
}

// The failover tentpole: a chip crash mid-run plus a host stall, a flapping
// bridge link, and dropped/corrupted completion notices. Heartbeat
// watchdogs, quarantine, and re-forwarding all fire, and the complete
// recovery transcript (report with health footer, recovery decisions,
// cluster fault lines, per-chip decision/fault/notice logs) must be
// byte-identical from run to run.
TEST(GoldenDeterminism, ClusterChipCrashFailoverParallelInvariance) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.traffic.jobs = 10;
  cfg.traffic.pipeline_frac = 0.4;  // wedge-prone multi-stage graphs
  cfg.remote_frac = 0.4;
  std::istringstream plan(
      "seed 3\n"
      "chips 2x2\n"
      "chip-crash chip=0,1 at=400000\n"
      "chip-stall chip=1,0 at=200000 for=250000\n"
      "xmesh from=0,0 to=1,1 at=100000 for=120000 flap=2 period=400000\n"
      "notice-drop chip=1,0 at=0 for=0 count=1\n"
      "notice-flip chip=1,1 at=0 for=0 count=1\n");
  cfg.cluster_plan = fault::parse(plan, "crash");

  // Failover semantics first: the run terminates (no wedged graphs), the
  // dead chip is marked, orphans were re-homed, and every record carries a
  // terminal verdict.
  sched::ClusterScheduler cs(cfg);
  cs.run();
  EXPECT_TRUE(cs.failover_armed());
  EXPECT_EQ(cs.stats().dead_chips, 1u);
  EXPECT_GT(cs.stats().reforwarded, 0u);
  EXPECT_EQ(cs.partition().health_of(1), machine::ChipHealth::Dead);
  unsigned completed_elsewhere = 0;
  for (unsigned c = 0; c < cs.stats().chips; ++c) {
    for (const auto& rec : cs.chip_sched(c).records()) {
      EXPECT_NE(rec.verdict, sched::Verdict::Pending);
      // Re-homed work completing on a healthy chip: a completed record on a
      // live chip whose spec originated elsewhere.
      if (c != 1 && rec.verdict == sched::Verdict::Completed &&
          rec.spec.origin_chip != c) {
        ++completed_elsewhere;
      }
    }
  }
  EXPECT_GT(completed_elsewhere, 0u);

  expect_replay_golden(cfg, 12557027773043665117ull);
}

}  // namespace
