// Chip-level fault machinery: XMeshBridge edge cases, the ClusterInjector's
// static schedules and notice budgets, PartitionMap health bookkeeping, and
// the failover stack's stale-notice path when a quarantined home comes back.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "arch/timing.hpp"
#include "fault/cluster.hpp"
#include "fault/plan.hpp"
#include "machine/partition.hpp"
#include "noc/xmesh.hpp"
#include "sched/cluster.hpp"

namespace epi {
namespace {

// ---------------------------------------------------------------------------
// XMeshBridge edge cases
// ---------------------------------------------------------------------------

// A zero-payload message (a bare signal; completion notices degenerate to
// this when the payload moves in-band) spends no serialization cycles: the
// delivery is pure flight, but still never undercuts the PDES lookahead.
TEST(XMeshBridge, ZeroPayloadNoticeIsPureFlight) {
  const arch::TimingParams timing{};
  noc::XMeshBridge bridge(timing, 4);
  const sim::Cycles ready = 1'000;
  const sim::Cycles at = bridge.send(/*dst=*/2, /*hops=*/1, /*bytes=*/0, ready);
  EXPECT_EQ(at, ready + bridge.flight(1));
  EXPECT_GE(at, ready + noc::XMeshBridge::min_latency(timing));
  EXPECT_EQ(bridge.messages(), 1u);
  EXPECT_EQ(bridge.bytes_sent(), 0u);
  // Zero bytes leave the egress link free: a payload right behind it does
  // not queue behind the signal.
  const sim::Cycles next =
      bridge.send(/*dst=*/2, /*hops=*/1, /*bytes=*/64, ready);
  EXPECT_EQ(next, at + static_cast<sim::Cycles>(
                           64.0 * timing.xmesh_write_overhead /
                           timing.xmesh_bytes_per_cycle));
}

// The highest chip id of the grid is a valid destination with its own
// egress lane: traffic to chip N-1 never queues behind traffic to chip 0,
// while back-to-back sends to N-1 itself serialize.
TEST(XMeshBridge, BoundaryChipIdHasOwnEgressLane) {
  const arch::TimingParams timing{};
  constexpr unsigned kChips = 4;
  noc::XMeshBridge bridge(timing, kChips);
  const sim::Cycles a = bridge.send(kChips - 1, 2, 512, 0);
  const sim::Cycles b = bridge.send(0, 2, 512, 0);
  EXPECT_EQ(a, b);  // distinct lanes: same ready, same delivery
  const sim::Cycles c = bridge.send(kChips - 1, 2, 512, 0);
  EXPECT_GT(c, a);  // same lane: serializes behind the first message
  EXPECT_EQ(bridge.messages(), 3u);
  EXPECT_EQ(bridge.bytes_sent(), 3u * 512u);
}

// A permanently dead link reports "never" and accounts nothing -- the
// failover layer, not the bridge, decides what happens to the message.
TEST(XMeshBridge, DeadLinkAccountsNothing) {
  const arch::TimingParams timing{};
  noc::XMeshBridge bridge(timing, 2);
  bridge.set_outage([](unsigned, sim::Cycles) { return fault::kNever; });
  EXPECT_EQ(bridge.send(1, 1, 256, 5'000), fault::kNever);
  EXPECT_EQ(bridge.messages(), 0u);
  EXPECT_EQ(bridge.bytes_sent(), 0u);
}

// A transient outage defers serialization until the link clears; traffic
// to an unaffected destination is untouched.
TEST(XMeshBridge, OutageDefersSerializationUntilClear) {
  const arch::TimingParams timing{};
  noc::XMeshBridge bridge(timing, 4);
  const sim::Cycles clear = 40'000;
  bridge.set_outage([clear](unsigned dst, sim::Cycles t) {
    return dst == 3 ? std::max(t, clear) : t;
  });
  const auto ser = static_cast<sim::Cycles>(
      128.0 * timing.xmesh_write_overhead / timing.xmesh_bytes_per_cycle);
  EXPECT_EQ(bridge.send(3, 1, 128, 10'000), clear + ser + bridge.flight(1));
  EXPECT_EQ(bridge.send(1, 1, 128, 10'000), 10'000 + ser + bridge.flight(1));
}

// ---------------------------------------------------------------------------
// ClusterInjector static schedules
// ---------------------------------------------------------------------------

fault::FaultPlan parse_plan(const std::string& text) {
  std::istringstream in(text);
  return fault::parse(in, "test-plan");
}

TEST(ClusterInjector, CrashStallAndFlapSchedules) {
  const fault::FaultPlan plan = parse_plan(
      "seed 4\n"
      "chips 2x2\n"
      "chip-crash chip=0,1 at=400000\n"
      "chip-stall chip=1,0 at=200000 for=100000\n"
      "chip-stall chip=1,0 at=280000 for=100000\n"  // overlaps: chains
      "xmesh from=0,0 to=1,1 at=100000 for=50000 flap=2 period=300000\n"
      "xmesh from=1,1 to=0,0 at=50000 for=0\n");  // for=0 => permanent
  fault::ClusterInjector inj(plan, 2, 2);
  EXPECT_TRUE(inj.armed());
  EXPECT_EQ(inj.chips(), 4u);

  EXPECT_EQ(inj.crash_at(1), 400'000u);
  EXPECT_EQ(inj.crash_at(0), fault::kNever);

  // Host freeze: clear outside windows, chained across the overlap.
  EXPECT_EQ(inj.host_thaw(2, 100'000), 0u);
  EXPECT_EQ(inj.host_thaw(2, 250'000), 380'000u);  // 200k..300k chains to 380k
  EXPECT_EQ(inj.host_thaw(2, 390'000), 0u);
  EXPECT_EQ(inj.next_freeze(2, 0), 200'000u);
  EXPECT_EQ(inj.next_freeze(2, 250'000), 280'000u);
  EXPECT_EQ(inj.next_freeze(2, 300'000), fault::kNever);

  // Flapping directed link 0->3: two windows, one period apart.
  EXPECT_EQ(inj.xmesh_clear(0, 3, 120'000), 150'000u);
  EXPECT_EQ(inj.xmesh_clear(0, 3, 200'000), 200'000u);  // between flaps
  EXPECT_EQ(inj.xmesh_clear(0, 3, 410'000), 450'000u);  // second flap window
  // Permanent outage 3->0; the reverse direction is never affected.
  EXPECT_EQ(inj.xmesh_clear(3, 0, 60'000), fault::kNever);
  EXPECT_EQ(inj.xmesh_clear(3, 0, 10'000), 10'000u);  // before it starts
  EXPECT_EQ(inj.xmesh_clear(0, 1, 60'000), 60'000u);  // undeclared link
}

TEST(ClusterInjector, NoticeBudgetsAreBoundedAndLogged) {
  const fault::FaultPlan plan = parse_plan(
      "seed 9\n"
      "chips 1x2\n"
      "notice-drop chip=0,0 at=10000 for=90000 count=2\n"
      "notice-flip chip=0,1 at=0 for=0 count=1\n");
  fault::ClusterInjector inj(plan, 1, 2);

  EXPECT_FALSE(inj.drop_notice(0, 5'000));   // before the window
  EXPECT_TRUE(inj.drop_notice(0, 20'000));   // budget 1
  EXPECT_TRUE(inj.drop_notice(0, 30'000));   // budget 2
  EXPECT_FALSE(inj.drop_notice(0, 40'000));  // budget spent
  EXPECT_EQ(inj.notices_dropped(0), 2u);
  EXPECT_EQ(inj.injections(0).size(), 2u);

  // Flips corrupt exactly one bit; empty payloads are left alone and do not
  // consume the budget.
  std::string empty;
  EXPECT_FALSE(inj.flip_notice(1, 1'000, empty));
  std::string payload = "job=3 verdict=completed";
  const std::string before = payload;
  EXPECT_TRUE(inj.flip_notice(1, 2'000, payload));
  ASSERT_EQ(payload.size(), before.size());
  unsigned diff_bits = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    unsigned x = static_cast<unsigned char>(payload[i]) ^
                 static_cast<unsigned char>(before[i]);
    while (x != 0) {
      diff_bits += x & 1u;
      x >>= 1u;
    }
  }
  EXPECT_EQ(diff_bits, 1u);
  EXPECT_FALSE(inj.flip_notice(1, 3'000, payload));  // budget spent
  EXPECT_EQ(inj.notices_flipped(1), 1u);
}

TEST(ClusterInjector, ValidatesGridAgainstPlan) {
  const fault::FaultPlan plan = parse_plan(
      "seed 1\n"
      "chips 2x2\n"
      "chip-crash chip=1,1 at=1000\n");
  EXPECT_THROW(fault::ClusterInjector(plan, 1, 2), fault::FaultError);
  EXPECT_THROW(fault::ClusterInjector(plan, 0, 0), fault::FaultError);
  EXPECT_NO_THROW(fault::ClusterInjector(plan, 2, 2));

  // A hand-built event outside the grid (the parser normally rejects this)
  // is still caught at injector construction.
  fault::FaultPlan bad;
  bad.chip_rows = bad.chip_cols = 2;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::ChipCrash;
  e.chip = arch::CoreCoord{3, 0};
  bad.events.push_back(e);
  EXPECT_THROW(fault::ClusterInjector(bad, 2, 2), fault::FaultError);
}

TEST(ClusterInjector, SplitsChipTaggedMachineFaults) {
  const fault::FaultPlan plan = parse_plan(
      "seed 2\n"
      "chips 2x2\n"
      "chip-crash chip=1,1 at=900000\n"
      "kill chip=0,0 core=2,3 at=120000\n"
      "stall chip=0,1 core=1,1 at=50000 for=10000\n");
  fault::ClusterInjector inj(plan, 2, 2);
  EXPECT_TRUE(inj.armed());

  const fault::FaultPlan p0 = inj.machine_plan(0);
  ASSERT_EQ(p0.events.size(), 1u);
  EXPECT_EQ(p0.events[0].kind, fault::FaultKind::KillCore);
  EXPECT_FALSE(p0.events[0].has_chip);  // a plain single-machine event again
  EXPECT_EQ(p0.seed, 2u);
  EXPECT_EQ(inj.machine_plan(1).events.size(), 1u);
  EXPECT_TRUE(inj.machine_plan(2).events.empty());
  EXPECT_TRUE(inj.machine_plan(3).events.empty());

  // Machine-only cluster plans never arm the failover stack.
  const fault::FaultPlan machine_only = parse_plan(
      "seed 2\n"
      "chips 2x2\n"
      "kill chip=0,0 core=2,3 at=120000\n");
  EXPECT_FALSE(fault::ClusterInjector(machine_only, 2, 2).armed());
}

// ---------------------------------------------------------------------------
// Parser negatives: every rejection carries `source:line:`.
// ---------------------------------------------------------------------------

void expect_parse_error(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  try {
    (void)fault::parse(in, "plan.txt");
    FAIL() << "expected FaultError containing '" << needle << "'";
  } catch (const fault::FaultError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("plan.txt:"), std::string::npos) << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
  }
}

TEST(ClusterPlanParser, RejectsDuplicateIdsAndBadCoords) {
  expect_parse_error(
      "chips 2x2\n"
      "chip-crash chip=0,0 at=1 id=7\n"
      "chip-stall chip=0,1 at=2 for=3 id=7\n",
      "duplicate fault id");
  expect_parse_error(
      "chips 2x2\n"
      "chip-crash chip=2,0 at=1\n",
      "outside the 2x2 chip grid");
  expect_parse_error(
      "chips 2x2\n"
      "xmesh from=0,0 to=0,2 at=1 for=2\n",
      "outside the 2x2 chip grid");
  expect_parse_error("chip-crash chip=0,0 at=1\n", "chips");
  expect_parse_error(
      "chips 2x2\n"
      "chips 2x2\n",
      "duplicate 'chips'");
}

// ---------------------------------------------------------------------------
// PartitionMap health bookkeeping
// ---------------------------------------------------------------------------

TEST(PartitionHealth, MarksFoldIntoTheMap) {
  machine::PartitionMap part;
  part.chip_rows = 2;
  part.chip_cols = 2;
  EXPECT_TRUE(part.usable(3));  // empty health vector = all healthy
  part.mark(1, machine::ChipHealth::Quarantined);
  part.mark(2, machine::ChipHealth::Dead);
  EXPECT_EQ(part.health_of(0), machine::ChipHealth::Healthy);
  EXPECT_EQ(part.health_of(1), machine::ChipHealth::Quarantined);
  EXPECT_EQ(part.health_of(2), machine::ChipHealth::Dead);
  EXPECT_FALSE(part.usable(1));
  EXPECT_FALSE(part.usable(2));
  EXPECT_TRUE(part.usable(3));
  EXPECT_TRUE(part.contains_chip(1, 1));
  EXPECT_FALSE(part.contains_chip(2, 0));
}

// ---------------------------------------------------------------------------
// Failover end-to-end: a notice that arrives after the origin quarantined
// (and re-homed away from) its sender is logged as stale, never double-
// resolving the job.
// ---------------------------------------------------------------------------

TEST(ClusterFailover, LateNoticeAfterQuarantineIsStale) {
  sched::ClusterConfig cfg;
  cfg.chip_rows = 2;
  cfg.chip_cols = 2;
  cfg.traffic.jobs = 8;
  cfg.traffic.seed = 7;
  cfg.traffic.mean_interarrival = 40'000;
  cfg.remote_frac = 0.6;
  // Tight budgets so the quarantine fires well inside the stall window: the
  // frozen home absorbs forwards, gets struck out and re-homed around, then
  // thaws and completes its copies -- whose notices must land as stale.
  cfg.failover.heartbeat_period = 60'000;
  cfg.failover.miss_budget = 3;
  cfg.failover.forward_timeout = 300'000;
  cfg.failover.forward_backoff = 30'000;
  cfg.cluster_plan = parse_plan(
      "seed 5\n"
      "chips 2x2\n"
      "chip-stall chip=0,1 at=0 for=1500000\n");

  sched::ClusterScheduler cs(cfg);
  cs.run();
  EXPECT_TRUE(cs.failover_armed());
  EXPECT_EQ(cs.stats().dead_chips, 0u);  // a stall is not a crash
  EXPECT_GT(cs.stats().reforwarded, 0u);
  EXPECT_GT(cs.stats().quarantines, 0u);

  // Every job resolved exactly once; replayed completions were shed as
  // stale notices or deduped at the home.
  unsigned stale = 0;
  for (unsigned c = 0; c < cs.stats().chips; ++c) {
    for (const auto& rec : cs.chip_sched(c).records()) {
      EXPECT_NE(rec.verdict, sched::Verdict::Pending);
    }
    for (const auto& line : cs.notices(c)) {
      if (line.find("notice-stale") != std::string::npos) ++stale;
    }
  }
  EXPECT_GT(stale + cs.stats().dup_dropped, 0u);
}

// A chip-tagged core kill hangs its workgroup until the watchdog abandons
// the silenced kernels: the frames stay suspended by design, and the
// cluster run must treat them as a resolved fault, not a deadlock.
// (Regression: unfinished() once reported watchdog-abandoned frames at
// global idle and the whole run threw DeadlockError.)
TEST(ClusterFailover, WatchdogAbandonedKernelsAreNotADeadlock) {
  sched::ClusterConfig cfg;
  cfg.chip_rows = 1;
  cfg.chip_cols = 2;
  cfg.traffic.jobs = 12;
  cfg.traffic.seed = 7;
  cfg.traffic.mean_interarrival = 40'000;
  cfg.remote_frac = 0.3;
  cfg.sched.watchdog_cycles = 400'000;
  cfg.cluster_plan = parse_plan(
      "seed 7\n"
      "chips 1x2\n"
      "kill chip=0,0 core=3,2 at=200000\n"
      "chip-stall chip=0,1 at=100000 for=50000\n");

  sched::ClusterScheduler cs(cfg);
  ASSERT_NO_THROW(cs.run());
  bool watchdog_fired = false;
  for (unsigned c = 0; c < cs.stats().chips; ++c) {
    for (const auto& r : cs.chip_sched(c).fault_log()) {
      if (r.kind == std::string("watchdog")) watchdog_fired = true;
    }
    for (const auto& rec : cs.chip_sched(c).records()) {
      EXPECT_NE(rec.verdict, sched::Verdict::Pending);
    }
  }
  EXPECT_TRUE(watchdog_fired);
}

}  // namespace
}  // namespace epi
