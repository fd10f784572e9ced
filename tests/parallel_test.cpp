// Tests for the conservative PDES window loop (sim/parallel.hpp): window
// scheduling, the deterministic cross-domain merge, the lookahead contract,
// global-idle deadlock detection, exception propagation -- and the cluster
// serving layer built on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace epi;

// A minimal domain: its own engine, no host-side orchestration.
struct ToyDomain : sim::Domain {
  sim::Engine eng;
  sim::Engine& engine() override { return eng; }
  void advance(sim::Cycles limit) override {
    while (eng.step_below(limit)) {
    }
  }
  sim::Cycles next_time() override { return eng.next_event_time(); }
};

// Two domains ping-pong a token through the executor. The merged firing
// log (domain, cycle) must follow the hop latency exactly, and the window
// count must match the schedule implied by the lookahead.
TEST(ParallelEngine, PingPongWindowSchedule) {
  constexpr sim::Cycles kLook = 450;
  constexpr sim::Cycles kHop = kLook + 7;
  constexpr int kHops = 16;

  ToyDomain a, b;
  sim::ParallelEngine pe(kLook);
  const sim::DomainId ia = pe.add_domain(a);
  const sim::DomainId ib = pe.add_domain(b);
  std::vector<std::pair<int, sim::Cycles>> log;

  // hop() runs on `side`'s engine; each hop re-sends to the peer until the
  // budget runs out. std::function self-reference via a small struct.
  struct Hopper {
    sim::ParallelEngine* pe;
    ToyDomain* doms[2];
    sim::DomainId ids[2];
    std::vector<std::pair<int, sim::Cycles>>* log;
    void hop(int side, int remaining) {
      ToyDomain& d = *doms[side];
      log->emplace_back(side, d.eng.now());
      if (remaining == 0) return;
      const int peer = 1 - side;
      pe->send(ids[side], ids[peer], d.eng.now() + kHop,
               static_cast<std::uint64_t>(remaining),
               [this, peer, remaining] { hop(peer, remaining - 1); });
    }
  };
  Hopper h{&pe, {&a, &b}, {ia, ib}, &log};
  a.eng.call_at(5, [&h] { h.hop(0, kHops); });
  pe.run();

  std::vector<std::pair<int, sim::Cycles>> want;
  for (int i = 0; i <= kHops; ++i) want.emplace_back(i % 2, 5 + i * kHop);
  EXPECT_EQ(log, want);
  const sim::ParallelStats& st = pe.stats();
  EXPECT_EQ(st.messages, static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(st.barriers, 0u);
  // Each hop lands beyond the previous window (gap > lookahead), so every
  // hop opens its own window.
  EXPECT_EQ(st.windows, static_cast<std::uint64_t>(kHops + 1));
  EXPECT_EQ(st.horizon, want.back().second);
}

// Same-cycle cross-domain messages from two sources merge by (key, src,
// seq), not by send order.
TEST(ParallelEngine, SameCycleMergeIsKeyOrdered) {
  ToyDomain src_a, src_b, dst;
  sim::ParallelEngine pe(100);
  const sim::DomainId ia = pe.add_domain(src_a);
  const sim::DomainId ib = pe.add_domain(src_b);
  const sim::DomainId id = pe.add_domain(dst);
  std::vector<int> order;
  // Both sources fire at cycle 10 and target cycle 110 on dst; keys are
  // chosen so key order disagrees with source and send order.
  src_a.eng.call_at(10, [&] {
    pe.send(ia, id, 110, 9, [&order] { order.push_back(9); });
    pe.send(ia, id, 110, 2, [&order] { order.push_back(2); });
  });
  src_b.eng.call_at(10, [&] {
    pe.send(ib, id, 110, 5, [&order] { order.push_back(5); });
  });
  pe.run();
  EXPECT_EQ(order, (std::vector<int>{2, 5, 9}));
}

TEST(ParallelEngine, LookaheadViolationThrows) {
  ToyDomain a, b;
  sim::ParallelEngine pe(450);
  const sim::DomainId ia = pe.add_domain(a);
  const sim::DomainId ib = pe.add_domain(b);
  a.eng.call_at(100, [&] {
    pe.send(ia, ib, 100 + 449, 0, [] {});  // one cycle short of the contract
  });
  EXPECT_THROW(pe.run(), std::logic_error);
}

TEST(ParallelEngine, SendOutsideRunThrows) {
  ToyDomain a, b;
  sim::ParallelEngine pe(450);
  const sim::DomainId ia = pe.add_domain(a);
  const sim::DomainId ib = pe.add_domain(b);
  EXPECT_THROW(pe.send(ia, ib, 1000, 0, [] {}), std::logic_error);
}

// A domain that goes idle with work it knows is unfinished must surface a
// DeadlockError at global idle (the cluster equivalent of a kernel that
// waits on a flag nobody will ever set).
TEST(ParallelEngine, UnfinishedWorkRaisesDeadlock) {
  struct StuckDomain final : ToyDomain {
    std::vector<std::string> unfinished() override { return {"stuck-kernel"}; }
  };
  StuckDomain d;
  sim::ParallelEngine pe(450);
  pe.add_domain(d);
  try {
    pe.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-kernel"), std::string::npos);
  }
}

// Two domains throw from advance() in the same window. The executor must
// finish that window, stop before opening another, and rethrow the
// lower-id domain's exception -- even though domain 1 threw at an earlier
// cycle.
TEST(ParallelEngine, DomainExceptionPropagates) {
  ToyDomain a, b;
  sim::ParallelEngine pe(450);
  pe.add_domain(a);
  pe.add_domain(b);
  bool later_window_ran = false;
  a.eng.call_at(20, [] { throw std::runtime_error("domain 0"); });
  b.eng.call_at(10, [] { throw std::runtime_error("domain 1"); });
  b.eng.call_at(5'000, [&] { later_window_ran = true; });
  try {
    pe.run();
    FAIL() << "expected the domain exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "domain 0");
  }
  EXPECT_FALSE(later_window_ran);
  EXPECT_EQ(pe.stats().windows, 1u);
}

// ---- cluster serving layer ------------------------------------------------

sched::ClusterConfig small_cluster() {
  sched::ClusterConfig cfg;
  cfg.chip_rows = 2;
  cfg.chip_cols = 2;
  cfg.traffic.jobs = 8;
  cfg.traffic.seed = 11;
  cfg.traffic.mean_interarrival = 40'000;
  cfg.remote_frac = 0.4;
  return cfg;
}

TEST(Cluster, ForwardsJobsAndReturnsNotices) {
  sched::ClusterScheduler cs(small_cluster());
  cs.run();
  const sched::ClusterStats& st = cs.stats();
  EXPECT_EQ(st.chips, 4u);
  EXPECT_EQ(st.lookahead, 450u);
  EXPECT_GT(st.forwards, 0u);
  // Every forwarded job resolves exactly once, so every forward produces
  // exactly one completion notice back to its origin.
  EXPECT_EQ(st.notices, st.forwards);
  std::uint64_t delivered = 0;
  for (unsigned c = 0; c < st.chips; ++c) delivered += cs.notices(c).size();
  EXPECT_EQ(delivered, st.notices);
  // Forwarded jobs really ran on their home chip: records exist whose
  // origin differs from the chip that served them.
  std::uint64_t remote_records = 0;
  for (unsigned c = 0; c < st.chips; ++c) {
    for (const auto& rec : cs.chip_sched(c).records()) {
      EXPECT_EQ(rec.spec.home_chip, c);
      if (rec.spec.origin_chip != c) ++remote_records;
      EXPECT_NE(rec.verdict, sched::Verdict::Pending);
    }
  }
  EXPECT_EQ(remote_records, st.forwards);
}

TEST(Cluster, SingleChipDegeneratesCleanly) {
  sched::ClusterConfig cfg = small_cluster();
  cfg.chip_rows = cfg.chip_cols = 1;
  cfg.traffic.jobs = 6;
  sched::ClusterScheduler cs(cfg);
  cs.run();
  EXPECT_EQ(cs.stats().forwards, 0u);
  EXPECT_EQ(cs.stats().notices, 0u);
  for (const auto& rec : cs.chip_sched(0).records()) {
    EXPECT_NE(rec.verdict, sched::Verdict::Pending);
  }
}

}  // namespace
