// Fault injection, detection and recovery tests: plan parsing errors,
// watchdog semantics (exactly one report per stuck group, no report for a
// merely-slow job), quarantine + relocation, transfer-CRC plumbing, and the
// byte-identity of same-plan runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fault/crc.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "host/system.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace {

using namespace epi;

// ---- CRC ------------------------------------------------------------------

TEST(FaultCrc, MatchesKnownVectorAndChains) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  std::byte digits[9];
  for (std::size_t i = 0; i < 9; ++i) digits[i] = static_cast<std::byte>('1' + i);
  EXPECT_EQ(fault::crc32(digits), 0xCBF43926u);
  // Chaining over a split buffer equals the one-shot CRC.
  const auto head = fault::crc32(std::span<const std::byte>{digits, 4});
  EXPECT_EQ(fault::crc32(std::span<const std::byte>{digits + 4, 5}, head),
            0xCBF43926u);
  // A single flipped bit changes the CRC.
  digits[3] ^= std::byte{0x10};
  EXPECT_NE(fault::crc32(digits), 0xCBF43926u);
}

// ---- parser error reporting ----------------------------------------------

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)fault::parse(in, "plan");
  } catch (const fault::FaultError& e) {
    return e.what();
  }
  return {};
}

TEST(FaultPlanParser, ErrorsCarrySourceAndLine) {
  EXPECT_EQ(parse_error("kill core=2,3\n").substr(0, 7), "plan:1:");
  EXPECT_EQ(parse_error("seed 5\n\n# ok\nwobble at=3\n").substr(0, 7), "plan:4:");
  EXPECT_NE(parse_error("stall core=1,1 at=5 for=0\n").find("for=CYCLES > 0"),
            std::string::npos);
  EXPECT_NE(parse_error("mem-flip region=rom at=0\n").find("'dram' or 'scratch'"),
            std::string::npos);
  EXPECT_NE(parse_error("kill core=1,1 at=soon\n").find("needs an integer"),
            std::string::npos);
  EXPECT_EQ(parse_error("link router=4 dir=east at=5 for=0\n").substr(0, 7),
            "plan:1:");
  EXPECT_EQ(parse_error("seed banana\n").substr(0, 7), "plan:1:");
  // Numbers are read strictly: no sign, no trailing junk, no silent
  // truncation to the field's type.
  EXPECT_EQ(parse_error("kill core=4294967298,3 at=0\n"),
            "plan:1: field 'core' needs an integer in [0, 62], got '4294967298'");
  EXPECT_EQ(parse_error("kill core=2x,3 at=0\n"),
            "plan:1: field 'core' needs an integer in [0, 62], got '2x'");
  EXPECT_EQ(parse_error("kill core=1,1 at=-1\n"),
            "plan:1: field 'at' needs an integer in [0, 1000000000000], got '-1'");
  EXPECT_EQ(parse_error("seed -7\n"),
            "plan:1: field 'seed' needs an integer in [0, 18446744073709551615], "
            "got '-7'");
  EXPECT_EQ(parse_error("stall core=1,1 at=5 for=90000junk\n"),
            "plan:1: field 'for' needs an integer in [0, 1000000000000], got "
            "'90000junk'");
}

TEST(FaultPlanParser, RoundTripsThroughText) {
  fault::ChaosConfig cc;
  cc.seed = 99;
  cc.dims = {8, 8};
  cc.core_kills = 1;
  cc.core_stalls = 2;
  cc.link_faults = 3;
  cc.elink_outages = 1;
  cc.elink_flips = 1;
  cc.mem_flips = 2;
  const fault::FaultPlan plan = fault::generate(cc);
  const std::string text = fault::save(plan);
  std::istringstream in(text);
  EXPECT_EQ(fault::save(fault::parse(in)), text);
  // Same seed, same bytes; a different seed moves the random placements.
  EXPECT_EQ(fault::save(fault::generate(cc)), text);
  cc.seed = 100;
  EXPECT_NE(fault::save(fault::generate(cc)), text);

  // A generated cluster plan (chip-scoped faults plus a chip-tagged kill)
  // round-trips too.
  fault::ChaosConfig cl;
  cl.seed = 5;
  cl.dims = {8, 8};
  cl.chip_rows = 2;
  cl.chip_cols = 2;
  cl.core_kills = 1;
  cl.chip_crashes = 1;
  cl.chip_stalls = 1;
  cl.xmesh_faults = 2;
  cl.notice_drops = 1;
  cl.notice_flips = 1;
  const fault::FaultPlan cplan = fault::generate(cl);
  ASSERT_TRUE(cplan.cluster());
  ASSERT_FALSE(cplan.events.empty());
  EXPECT_TRUE(cplan.events[0].has_chip);  // the kill carries chip=
  const std::string ctext = fault::save(cplan);
  std::istringstream cin(ctext);
  EXPECT_EQ(fault::save(fault::parse(cin)), ctext);
}

TEST(WorkloadParser, ErrorsCarrySourceAndLine) {
  const auto err = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      (void)sched::load(in, "wl");
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(err("task id=0\n").substr(0, 5), "wl:1:");
  EXPECT_EQ(err("# fine\njob id=0 kind=sort\n").substr(0, 5), "wl:2:");
  EXPECT_NE(err("job id=0 kind=matmul rows=0 cols=2 arrival=0\n")
                .find("at least 1x1"),
            std::string::npos);
  EXPECT_NE(err("job id=zero kind=matmul rows=1 cols=1 arrival=0\n")
                .find("needs an integer"),
            std::string::npos);
  // Numbers are read strictly: no sign, no trailing junk, no silent
  // truncation to the field's type, and cycle counts and work bounded.
  EXPECT_EQ(err("job id=0 kind=matmul rows=1junk cols=1\n"),
            "wl:1: field 'rows' needs an integer in [0, 63], got '1junk'");
  EXPECT_EQ(err("job id=0 kind=matmul rows=4294967297 cols=1\n"),
            "wl:1: field 'rows' needs an integer in [0, 63], got '4294967297'");
  EXPECT_EQ(err("job id=0 kind=matmul prio=-1\n"),
            "wl:1: field 'prio' needs an integer in [0, 4294967295], got '-1'");
  EXPECT_EQ(err("job id=0 kind=matmul arrival=-5\n"),
            "wl:1: field 'arrival' needs an integer in [0, 1000000000000], got "
            "'-5'");
  EXPECT_EQ(err("job id=0 kind=matmul arrival=18446744073709551615 "
                "timeout=18446744073709551615\n"),
            "wl:1: field 'arrival' needs an integer in [0, 1000000000000], got "
            "'18446744073709551615'");
  EXPECT_EQ(err("job id=0 kind=matmul timeout=18446744073709551615\n"),
            "wl:1: field 'timeout' needs an integer in [0, 1000000000000], got "
            "'18446744073709551615'");
  EXPECT_EQ(err("job id=0 kind=stencil iters=4000000000\n"),
            "wl:1: field 'iters' needs an integer in [0, 1000], got '4000000000'");
  // Graph checks run after the last line and name the offending job's line:
  // a graph short of its stages, a dep that is not an earlier stage of the
  // job's graph (an unknown id, the job itself), and a reused job id.
  EXPECT_EQ(err("job id=1 kind=matmul rows=1 cols=1 graph=1 stage=1 stages=2 "
                "deps=77:2048\n"),
            "wl:1: job 1: graph 1 has 1 jobs but stages=2");
  const std::string producer =
      "job id=0 kind=matmul rows=1 cols=1 graph=1 stage=0 stages=2\n# consumer\n";
  EXPECT_EQ(err(producer +
                "job id=1 kind=matmul rows=1 cols=1 graph=1 stage=1 stages=2 "
                "deps=77:2048\n"),
            "wl:3: job 1: dep 77 is not an earlier stage of graph 1");
  EXPECT_EQ(err(producer +
                "job id=1 kind=matmul rows=1 cols=1 graph=1 stage=1 stages=2 "
                "deps=1:64\n"),
            "wl:3: job 1: dep 1 is not an earlier stage of graph 1");
  EXPECT_EQ(err(producer +
                "job id=0 kind=matmul rows=1 cols=1 graph=1 stage=1 stages=2 "
                "deps=0:64\n"),
            "wl:3: job 0: id already names the job at line 1");
  // Ids are unique over standalone jobs too, so the report's rows name one
  // job each; a line without id= reads as id 0.
  EXPECT_EQ(err("job id=0 kind=matmul rows=1 cols=1\n"
                "job id=0 kind=matmul rows=1 cols=1\n"),
            "wl:2: job 0: id already names the job at line 1");
  EXPECT_EQ(err("job kind=matmul rows=1 cols=1\n# again\n"
                "job kind=stencil rows=1 cols=1\n"),
            "wl:3: job 0: id already names the job at line 1");
}

// ---- watchdog semantics ---------------------------------------------------

fault::FaultPlan kill_plan(unsigned row, unsigned col, sim::Cycles at) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::KillCore;
  e.core = {row, col};
  e.at = at;
  plan.events.push_back(e);
  return plan;
}

sched::JobSpec lone_matmul(unsigned iters) {
  sched::JobSpec s;
  s.id = 0;
  s.kind = sched::JobKind::Matmul;
  s.rows = 1;
  s.cols = 1;
  s.iters = iters;
  s.block = 16;
  return s;
}

TEST(Watchdog, StalledCoreTripsExactlyOnceAndJobRelocates) {
  host::System sys;
  sys.machine().enable_faults(kill_plan(0, 0, 1'000));
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 50'000;
  sched::Scheduler sc(sys, cfg);
  sc.submit(lone_matmul(4));
  sc.run();

  ASSERT_EQ(sc.fault_log().size(), 1u);
  EXPECT_EQ(sc.fault_log()[0].kind, "watchdog");
  EXPECT_EQ(sc.fault_log()[0].job, 0u);
  // The kill struck at cycle 1000; detection latency is bounded by the
  // watchdog horizon, and the report points at the true fault time.
  EXPECT_EQ(sc.fault_log()[0].since, 1'000u);
  EXPECT_LE(sc.fault_log()[0].detected, 1'000u + 2 * 50'000u);

  EXPECT_EQ(sc.allocator().quarantined_cores(), 1u);
  const sched::JobRecord& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Completed);
  EXPECT_EQ(rec.recovery, sched::Recovery::Relocated);
  EXPECT_EQ(rec.reexecs, 1u);
  // The re-execution cannot land on the quarantined core.
  EXPECT_FALSE(rec.placed_row == 0 && rec.placed_col == 0);
}

TEST(Watchdog, HealthySlowJobDoesNotTrip) {
  host::System sys;
  sys.machine().enable_faults(fault::FaultPlan{});  // armed, but empty
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = 2'000;  // far below the job's true service time
  sched::Scheduler sc(sys, cfg);
  sc.submit(lone_matmul(20));
  sc.run();

  EXPECT_TRUE(sc.fault_log().empty());
  EXPECT_EQ(sc.allocator().quarantined_cores(), 0u);
  const sched::JobRecord& rec = sc.records()[0];
  EXPECT_EQ(rec.verdict, sched::Verdict::Completed);
  EXPECT_EQ(rec.recovery, sched::Recovery::None);
  EXPECT_GT(rec.service(), cfg.watchdog_cycles);  // it really was "late"
}

TEST(Watchdog, ZeroDisablesAndStuckGroupStillDeadlocks) {
  host::System sys;
  sys.machine().enable_faults(kill_plan(0, 0, 1'000));
  sched::Scheduler sc(sys);  // watchdog_cycles == 0: pre-fault behaviour
  sc.submit(lone_matmul(4));
  EXPECT_THROW(sc.run(), sim::DeadlockError);
}

// ---- determinism ----------------------------------------------------------

struct ChaosRun {
  std::string transcript;
  std::vector<std::string> injections;
  std::size_t faults = 0;
  unsigned completed = 0, unresolved = 0, quarantined = 0;
};

ChaosRun run_chaos(const fault::FaultPlan& plan, unsigned jobs = 20,
                   std::uint64_t seed = 5, sim::Cycles interarrival = 25'000,
                   sim::Cycles watchdog = 300'000) {
  host::System sys;
  sys.machine().enable_faults(plan);
  sched::TrafficConfig tc;
  tc.jobs = jobs;
  tc.seed = seed;
  tc.mean_interarrival = interarrival;
  sched::SchedConfig cfg;
  cfg.watchdog_cycles = watchdog;
  sched::Scheduler sc(sys, cfg);
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  ChaosRun out;
  out.transcript = sched::transcript(sc);
  out.faults = sc.fault_log().size();
  out.injections = sys.machine().faults()->injections();
  for (const auto& rec : sc.records()) {
    if (rec.verdict == sched::Verdict::Completed) ++out.completed;
    if (rec.verdict == sched::Verdict::Pending) ++out.unresolved;
  }
  out.quarantined = sc.allocator().quarantined_cores();
  return out;
}

TEST(FaultDeterminism, SamePlanSameWorkloadIsByteIdentical) {
  fault::ChaosConfig cc;
  cc.seed = 21;
  cc.dims = {8, 8};
  cc.horizon = 500'000;
  cc.core_kills = 1;
  cc.link_faults = 5;
  cc.elink_flips = 1;
  cc.mem_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);
  EXPECT_EQ(run_chaos(plan).transcript, run_chaos(plan).transcript);
}

TEST(FaultDeterminism, EmptyPlanMatchesUninstrumentedRun) {
  sched::TrafficConfig tc;
  tc.jobs = 16;
  tc.seed = 9;
  tc.mean_interarrival = 30'000;
  const std::vector<sched::JobSpec> jobs = sched::generate(tc);

  auto serve = [&](bool arm) {
    host::System sys;
    if (arm) sys.machine().enable_faults(fault::FaultPlan{});
    sched::Scheduler sc(sys);
    for (const auto& spec : jobs) sc.submit(spec);
    sc.run();
    if (arm) {  // nothing detected, nothing injected
      EXPECT_TRUE(sc.fault_log().empty());
      EXPECT_TRUE(sys.machine().faults()->injections().empty());
    }
    return sched::transcript(sc);
  };
  EXPECT_EQ(serve(false), serve(true));
}

// Chaos smoke: one dead core, ~5% transient directed-link outages and eLink
// corruption at once. Every job must reach a verdict, serving must continue,
// the dead core must be quarantined, and the whole run -- report, decisions,
// detections, injections -- must replay byte-identically. (Completed offload
// results are CRC/pattern-validated inside the scheduler when an injector is
// armed, so completed jobs are bit-correct by construction.)
TEST(FaultChaos, CoreKillLinkAndElinkFaultsRecoverAndReplay) {
  fault::ChaosConfig cc;
  cc.seed = 11;
  cc.dims = {8, 8};
  cc.horizon = 900'000;
  cc.core_kills = 1;
  cc.link_faults = 13;  // ~5% of the 256 directed links
  cc.transient_link_prob = 0.8;
  cc.elink_outages = 1;
  cc.elink_flips = 2;
  cc.mem_flips = 1;
  const fault::FaultPlan plan = fault::generate(cc);

  const ChaosRun first = run_chaos(plan, 40, 7, 30'000, 400'000);
  EXPECT_EQ(first.unresolved, 0u);
  EXPECT_GT(first.completed, 0u);
  EXPECT_GE(first.quarantined, 1u);
  EXPECT_GT(first.faults, 0u);

  const ChaosRun second = run_chaos(plan, 40, 7, 30'000, 400'000);
  EXPECT_EQ(second.transcript, first.transcript);
  EXPECT_EQ(second.injections, first.injections);
}

}  // namespace
