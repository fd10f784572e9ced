// Unit tests for the discrete-event engine and coroutine task types.

#include <gtest/gtest.h>

#include <coroutine>
#include <functional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace {

using namespace epi::sim;

Op<void> record_at(Engine& e, Cycles d, std::vector<Cycles>& log) {
  co_await delay(e, d);
  log.push_back(e.now());
}

TEST(Engine, StartsAtCycleZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, DelayAdvancesTime) {
  Engine e;
  std::vector<Cycles> log;
  spawn(e, record_at(e, 42, log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 42u);
  EXPECT_EQ(e.now(), 42u);
}

TEST(Engine, ZeroDelayDoesNotSuspend) {
  Engine e;
  std::vector<Cycles> log;
  spawn(e, record_at(e, 0, log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<Cycles> log;
  spawn(e, record_at(e, 30, log));
  spawn(e, record_at(e, 10, log));
  spawn(e, record_at(e, 20, log));
  e.run();
  EXPECT_EQ(log, (std::vector<Cycles>{10, 20, 30}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  auto mk = [&](int id) -> Op<void> {
    co_await delay(e, 5);
    order.push_back(id);
  };
  spawn(e, mk(1));
  spawn(e, mk(2));
  spawn(e, mk(3));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  std::vector<Cycles> log;
  spawn(e, record_at(e, 100, log));
  spawn(e, record_at(e, 200, log));
  e.run_until(150);
  EXPECT_EQ(log, (std::vector<Cycles>{100}));
  e.run_until(250);
  EXPECT_EQ(log, (std::vector<Cycles>{100, 200}));
}

TEST(Engine, CallAtRunsCallback) {
  Engine e;
  Cycles fired = 0;
  e.call_at(77, [&] { fired = e.now(); });
  e.run();
  EXPECT_EQ(fired, 77u);
}

TEST(Engine, SchedulingInThePastClampsToNow) {
  Engine e;
  std::vector<Cycles> log;
  spawn(e, [](Engine& eng, std::vector<Cycles>& l) -> Op<void> {
    co_await delay(eng, 50);
    // call_at in the past must not rewind time
    eng.call_at(10, [&] { l.push_back(eng.now()); });
  }(e, log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 50u);
}

Op<int> add_later(Engine& e, int a, int b) {
  co_await delay(e, 3);
  co_return a + b;
}

Op<int> nested(Engine& e) {
  const int x = co_await add_later(e, 1, 2);
  const int y = co_await add_later(e, x, 10);
  co_return y;
}

TEST(Op, ValueReturningOpsCompose) {
  Engine e;
  int result = 0;
  spawn(e, [](Engine& eng, int& out) -> Op<void> {
    out = co_await nested(eng);
  }(e, result));
  e.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(e.now(), 6u);  // two 3-cycle ops in sequence
}

TEST(Op, NonDefaultConstructibleResult) {
  struct Boxed {
    explicit Boxed(int v) : v(v) {}
    int v;
  };
  Engine e;
  int got = 0;
  auto make = [](Engine& eng) -> Op<Boxed> {
    co_await delay(eng, 1);
    co_return Boxed(99);
  };
  // Capture-less: a capturing coroutine lambda's closure dies with the full
  // expression, leaving the suspended frame with dangling capture refs.
  spawn(e, [](Engine& eng, int& out, decltype(make)& mk) -> Op<void> {
    Boxed b = co_await mk(eng);
    out = b.v;
  }(e, got, make));
  e.run();
  EXPECT_EQ(got, 99);
}

TEST(Process, ReportsCompletion) {
  Engine e;
  spawn(e, [](Engine& eng) -> Op<void> { co_await delay(eng, 10); }(e), 0, "worker");
  EXPECT_EQ(e.live_process_names(), std::vector<std::string>{"worker"});
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
  EXPECT_EQ(e.now(), 10u);
}

TEST(Process, LiveListKeepsSpawnOrderWhenProcessesFinishOutOfOrder) {
  Engine e;
  auto sleeper = [](Engine& eng, Cycles d) -> Op<void> { co_await delay(eng, d); };
  spawn(e, sleeper(e, 30), 0, "a");
  spawn(e, sleeper(e, 10), 0, "b");
  spawn(e, sleeper(e, 40));
  spawn(e, sleeper(e, 20), 0, "d");
  spawn(e, sleeper(e, 50), 0, "e");
  e.run_until(25);  // b and d finish while a, spawned first, still runs
  EXPECT_EQ(e.live_processes(), 3u);
  EXPECT_EQ(e.live_process_names(), (std::vector<std::string>{"a", "<unnamed>", "e"}));
  e.run_until(45);  // a, then the unnamed process
  EXPECT_EQ(e.live_process_names(), std::vector<std::string>{"e"});
  spawn(e, sleeper(e, 1), 0, "late");
  EXPECT_EQ(e.live_process_names(), (std::vector<std::string>{"e", "late"}));
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
  EXPECT_TRUE(e.live_process_names().empty());
}

// A spawner that needs a process's errors catches them in the process
// itself; one that escapes the root is a simulator bug.
TEST(ProcessDeathTest, EscapedExceptionTerminates) {
  EXPECT_DEATH(
      {
        Engine e;
        spawn(e, [](Engine& eng) -> Op<void> {
          co_await delay(eng, 1);
          throw std::runtime_error("kernel fault");
        }(e));
        e.run();
      },
      "kernel fault");
}

TEST(Process, ExceptionCrossesOpBoundary) {
  Engine e;
  auto inner = [](Engine& eng) -> Op<int> {
    co_await delay(eng, 1);
    throw std::logic_error("inner");
  };
  bool caught = false;
  spawn(e, [](Engine& eng, decltype(inner)& in, bool& c) -> Op<void> {
    try {
      (void)co_await in(eng);
    } catch (const std::logic_error&) {
      c = true;
    }
  }(e, inner, caught));
  e.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(e.live_processes(), 0u);
}

TEST(Process, StartDelayHonoured) {
  Engine e;
  Cycles started = ~Cycles{0};
  spawn(e, [](Engine& eng, Cycles& s) -> Op<void> {
    s = eng.now();
    co_return;
  }(e, started), 25);
  e.run();
  EXPECT_EQ(started, 25u);
}

TEST(WaitQueue, NotifyAllWakesEveryWaiter) {
  Engine e;
  WaitQueue q(e);
  std::vector<int> woke;
  auto waiter = [&](int id) -> Op<void> {
    co_await q.wait();
    woke.push_back(id);
  };
  spawn(e, waiter(1));
  spawn(e, waiter(2));
  spawn(e, [](Engine& eng, WaitQueue& wq) -> Op<void> {
    co_await delay(eng, 5);
    wq.notify_all();
  }(e, q));
  e.run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 5u);
}

TEST(Deadlock, DetectedWhenWaiterIsNeverNotified) {
  Engine e;
  WaitQueue q(e);
  spawn(e, [](WaitQueue& wq) -> Op<void> { co_await wq.wait(); }(q));
  EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Deadlock, MessageCountsTheNamedProcesses) {
  const DeadlockError three({"core (0,0)", "core (0,1)", "dma0@(0,0)"});
  EXPECT_STREQ(three.what(),
               "simulation deadlock: 3 process(es) suspended with an empty event "
               "queue [stuck: core (0,0), core (0,1), dma0@(0,0)]");
  std::vector<std::string> many;
  for (int i = 0; i < 11; ++i) many.push_back(std::string("p").append(std::to_string(i)));
  const DeadlockError eleven(many);
  EXPECT_NE(std::string(eleven.what()).find("deadlock: 11 process(es)"), std::string::npos);
  EXPECT_NE(std::string(eleven.what()).find("p7, +3 more]"), std::string::npos);
  EXPECT_EQ(eleven.stuck_names, many);
}

TEST(Deadlock, EngineReportNamesEveryLiveProcess) {
  Engine e;
  WaitQueue q(e);
  spawn(e, [](WaitQueue& wq) -> Op<void> { co_await wq.wait(); }(q), 0, "waiter");
  spawn(e, [](Engine& eng) -> Op<void> { co_await delay(eng, 5); }(e), 0, "sleeper");
  spawn(e, [](WaitQueue& wq) -> Op<void> { co_await wq.wait(); }(q));
  try {
    e.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& err) {
    EXPECT_EQ(err.stuck_names, (std::vector<std::string>{"waiter", "<unnamed>"}));
    EXPECT_STREQ(err.what(), e.deadlock_error().what());
    EXPECT_NE(std::string(err.what()).find("deadlock: 2 process(es)"), std::string::npos);
  }
}

TEST(Deadlock, RunUntilDoesNotThrow) {
  Engine e;
  WaitQueue q(e);
  spawn(e, [](WaitQueue& wq) -> Op<void> { co_await wq.wait(); }(q));
  EXPECT_NO_THROW(e.run_until(1000));
  EXPECT_EQ(e.live_processes(), 1u);
}

TEST(Determinism, SameSeedSameSchedule) {
  auto run_once = [] {
    Engine e;
    Rng rng(12345);
    std::vector<Cycles> log;
    for (int i = 0; i < 50; ++i) {
      spawn(e, record_at(e, rng.next_below(1000), log));
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(1);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, FloatInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const float f = r.next_float(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Engine, ManyProcessesDrainCompletely) {
  Engine e;
  int completed = 0;
  for (int i = 0; i < 1000; ++i) {
    spawn(e, [](Engine& eng, int d, int& n) -> Op<void> {
      co_await delay(eng, static_cast<Cycles>(d));
      co_await delay(eng, 1);
      ++n;
    }(e, i % 97, completed));
  }
  e.run();
  EXPECT_EQ(completed, 1000);
  EXPECT_EQ(e.live_processes(), 0u);
}

// ---- the event queue against a reference heap --------------------------------

// The engine's near-future span: a delay below it lands in the bucket ring,
// one at or above it in the overflow heap.
constexpr Cycles kSpan = 4096;

// Suspends for `d` cycles, d == 0 included (delay() does not suspend on 0).
struct Resume {
  Engine& e;
  Cycles d;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { e.schedule_in(d, h); }
  void await_resume() const noexcept {}
};

// Schedules seeded work on an Engine and mirrors every push into a
// std::priority_queue keyed by (time, seq), where seq counts pushes in
// order as the engine's insertion sequence does. Each firing event records
// its own (time, seq) next to the reference top it pops, so the engine's
// drain order is checked event by event. It also counts three ring shapes
// (bucket k is time mod kSpan; a word is 64 buckets):
//   wrap        -- now is in the ring's last word and the earliest ring
//                  event is in its first;
//   below       -- the earliest ring event is in now's word, below now;
//   refill      -- an event at now is pushed after now's bucket drained.
class RefOrder {
public:
  struct Ev {
    Cycles t;
    std::uint64_t seq;
    bool operator==(const Ev&) const = default;
    bool operator>(const Ev& o) const { return t != o.t ? t > o.t : seq > o.seq; }
  };

  RefOrder(std::uint64_t seed, std::size_t budget) : rng_(seed), budget_(budget) {}

  Engine e;
  std::vector<Ev> got, want;
  std::size_t wrap = 0, below = 0, refill = 0;

  Cycles draw_delay() {
    switch (rng_.next_below(7)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2 + rng_.next_below(62);
      case 3: return kSpan - 1;
      case 4: return kSpan;
      case 5: return kSpan + 1;
      default: return kSpan + 2 + rng_.next_below(3 * kSpan);
    }
  }

  void call_in(Cycles d) {
    const std::uint64_t s = note_push(d);
    e.call_at(e.now() + d, [this, s] {
      fired(s);
      follow_up();
    });
  }

  void spawn_process(Cycles d) {
    const std::uint64_t s = note_push(d);
    spawn(e, process(s, 1 + static_cast<int>(rng_.next_below(12))), d);
  }

  // Interleave step, step_below, run_until and next_event_time probes until
  // the queue drains.
  void drive() {
    while (!ref_.empty()) {
      count_shapes();
      const Cycles next = ref_.top().t;
      ASSERT_EQ(e.next_event_time(), next);
      switch (rng_.next_below(3)) {
        case 0:
          ASSERT_TRUE(e.step());
          break;
        case 1: {
          const Cycles limit = next + rng_.next_below(3);
          ASSERT_EQ(e.step_below(limit), next < limit);
          break;
        }
        default: {
          const Cycles until = e.now() + draw_delay();
          e.run_until(until);
          ASSERT_TRUE(ref_.empty() || ref_.top().t > until);
          break;
        }
      }
    }
    EXPECT_EQ(e.next_event_time(), Engine::kNever);
    EXPECT_FALSE(e.step());
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.live_processes(), 0u);
  }

private:
  using Ref = std::priority_queue<Ev, std::vector<Ev>, std::greater<>>;

  std::uint64_t note_push(Cycles d) {
    const Cycles t = e.now() + d;
    if (d < kSpan) {
      const auto at = ring_.lower_bound({t, 0});
      if (d == 0 && last_fired_ == t && (at == ring_.end() || at->first != t)) ++refill;
      ring_.emplace(t, seq_);
    }
    ref_.push(Ev{t, seq_});
    ++pushes_;
    return seq_++;
  }

  void fired(std::uint64_t s) {
    got.push_back(Ev{e.now(), s});
    if (ref_.empty()) {
      want.push_back(Ev{Engine::kNever, 0});  // fired with nothing pending
    } else {
      want.push_back(ref_.top());
      ring_.erase({ref_.top().t, ref_.top().seq});
      ref_.pop();
    }
    last_fired_ = e.now();
  }

  void follow_up() {
    for (auto k = rng_.next_below(3); k > 0 && pushes_ < budget_; --k) call_in(draw_delay());
    if (pushes_ < budget_ && rng_.next_below(8) == 0) spawn_process(draw_delay());
  }

  Op<void> process(std::uint64_t s, int steps) {
    for (;;) {
      fired(s);
      if (--steps == 0 || pushes_ >= budget_) co_return;
      follow_up();
      const Cycles d = draw_delay();
      s = note_push(d);
      co_await Resume{e, d};
    }
  }

  void count_shapes() {
    if (ring_.empty()) return;
    const Cycles now = e.now() % kSpan;
    const Cycles first = ring_.begin()->first % kSpan;
    if (now >= kSpan - 64 && first < 64) ++wrap;
    if (first / 64 == now / 64 && first < now) ++below;
  }

  Rng rng_;
  std::size_t budget_;
  std::size_t pushes_ = 0;
  std::uint64_t seq_ = 0;
  Ref ref_;
  std::set<std::pair<Cycles, std::uint64_t>> ring_;  // pending ring events
  Cycles last_fired_ = Engine::kNever;
};

TEST(Engine, RingMatchesReferenceHeapOrder) {
  std::size_t wrap = 0, below = 0, refill = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    RefOrder r(seed, 3000);
    for (int i = 0; i < 3; ++i) r.spawn_process(r.draw_delay());
    r.call_in(r.draw_delay());
    r.drive();
    ASSERT_EQ(r.got.size(), r.want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < r.got.size(); ++i) {
      ASSERT_EQ(r.got[i], r.want[i])
          << "seed " << seed << ", event " << i << ": fired (" << r.got[i].t << ", "
          << r.got[i].seq << "), reference (" << r.want[i].t << ", " << r.want[i].seq << ")";
    }
    wrap += r.wrap;
    below += r.below;
    refill += r.refill;
  }
  EXPECT_GT(wrap, 0u);
  EXPECT_GT(below, 0u);
  EXPECT_GT(refill, 0u);
}

}  // namespace
