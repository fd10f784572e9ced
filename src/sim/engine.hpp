#pragma once
// Discrete-event simulation engine with cycle-resolution time.
//
// The engine is the substrate for the whole Epiphany model: every eCore,
// DMA channel and host action is a coroutine process whose suspensions are
// resumed by the event queue. Ordering is deterministic: events fire in
// (time, insertion-sequence) order, so every benchmark in this repository
// is reproducible bit-for-bit.
//
// Hot-path design (the simulator's own throughput bounds how large a
// modelled experiment is practical -- perfbench/ measures it as
// sim.host_ns_per_event):
//   * Events are 32 bytes: a coroutine handle plus an index into a side
//     table of callbacks. Coroutine resumes -- the overwhelming majority --
//     never pay for an embedded std::function.
//   * The queue is two-level: a near-future ring of kRingSpan per-cycle
//     buckets (almost every event is scheduled a few to a few hundred
//     cycles out) and an overflow binary heap for the far future. Within a
//     bucket events are appended and popped FIFO, which *is* insertion-
//     sequence order because sequence numbers increase monotonically; the
//     ring front and the heap top are merged by (time, seq) on every pop,
//     so the drain order is bit-identical to a single global heap.
//   * An occupancy bitmap (one bit per bucket, one summary bit per 64
//     buckets) finds the earliest busy bucket in at most three
//     count-trailing-zeros steps, so a stretch of idle simulated time (a
//     core parked on an eLink transfer thousands of cycles long) costs one
//     lookup, not one probe per empty cycle. Bits change only when a bucket
//     fills from empty or drains, and the bucket at now() is checked first.

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

namespace epi::sim {

/// Simulated time, measured in device clock cycles (600 MHz on the
/// Epiphany-IV used in the paper; the clock rate lives in MachineConfig).
using Cycles = std::uint64_t;

/// Thrown by Engine::run() when the event queue drains while coroutine
/// processes are still alive (i.e. suspended on a wait that nothing will
/// ever satisfy). This catches synchronisation bugs in device kernels --
/// the simulated analogue of a hung flag-spin on real silicon. The message
/// names the stuck processes (spawn() attaches the names) so the hang is
/// attributable to a specific core or DMA channel.
class DeadlockError : public std::runtime_error {
public:
  explicit DeadlockError(std::vector<std::string> names)
      : std::runtime_error(message(names)), stuck_names(std::move(names)) {}
  std::vector<std::string> stuck_names;

private:
  static std::string message(const std::vector<std::string>& names) {
    std::string m = "simulation deadlock: " + std::to_string(names.size()) +
                    " process(es) suspended with an empty event queue";
    if (!names.empty()) {
      static constexpr std::size_t kShown = 8;
      m += " [stuck: ";
      for (std::size_t i = 0; i < names.size() && i < kShown; ++i) {
        if (i > 0) m += ", ";
        m += names[i];
      }
      if (names.size() > kShown) {
        m += ", +" + std::to_string(names.size() - kShown) + " more";
      }
      m += "]";
    }
    return m;
  }
};

/// The record of one live root process: its name and its links in the
/// engine's spawn-ordered list. It lives in the process's root frame (the
/// RootTask promise, task.hpp), so a spawn allocates nothing beyond that
/// frame and a name too long for the string's inline buffer.
struct ProcessRecord {
  ProcessRecord* prev = nullptr;
  ProcessRecord* next = nullptr;
  std::string name;
};

class Engine {
public:
  /// Sentinel time: "no event / never". Larger than any reachable cycle.
  static constexpr Cycles kNever = ~Cycles{0};

  Engine() : ring_(kRingSpan) { live_.prev = live_.next = &live_; }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Cycles now() const noexcept { return now_; }

  /// Resume `h` at absolute time `t` (clamped to now()).
  void schedule_at(Cycles t, std::coroutine_handle<> h) { push(t, h, 0); }

  /// Resume `h` after `dt` cycles.
  void schedule_in(Cycles dt, std::coroutine_handle<> h) {
    push(now_ + dt, h, 0);
  }

  /// Run an arbitrary callback at absolute time `t`. Used by host-side
  /// orchestration (e.g. stopping a timed micro-benchmark window) and by
  /// network pumps. The callable lives in a recycled side table so the
  /// common coroutine-resume event stays small.
  void call_at(Cycles t, std::function<void()> fn) {
    std::uint32_t idx;
    if (!fn_free_.empty()) {
      idx = fn_free_.back();
      fn_free_.pop_back();
      fns_[idx] = std::move(fn);
    } else {
      idx = static_cast<std::uint32_t>(fns_.size());
      fns_.push_back(std::move(fn));
    }
    push(t, {}, idx + 1);
  }

  /// Drain the event queue. Throws DeadlockError (naming the stuck
  /// processes) if any remain suspended when the queue empties.
  void run() {
    drain(kNoLimit);
    if (live_count_ != 0) throw deadlock_error();
  }

  /// Run until simulated time would exceed `t` (events at exactly `t` run).
  /// Pending processes are *not* a deadlock here; timed windows use this.
  void run_until(Cycles t) { drain(t); }

  /// Process a single event; returns false if the queue is empty.
  bool step() {
    Event ev;
    if (!pop(ev, kNoLimit)) return false;
    dispatch(ev);
    return true;
  }

  /// Process a single event with time strictly below `limit`; returns false
  /// if the queue is empty or the next event lies at or beyond `limit`.
  /// This is the conservative-window primitive: a PDES domain may only
  /// consume events below the current window end.
  bool step_below(Cycles limit) {
    if (limit == 0) return false;
    Event ev;
    if (!pop(ev, limit - 1)) return false;
    dispatch(ev);
    return true;
  }

  /// Time of the earliest pending event, or kNever when the queue is empty.
  [[nodiscard]] Cycles next_event_time() const {
    const Cycles ht = heap_.empty() ? kNever : heap_.top().t;
    const std::size_t k = ring_front();
    if (k == kRingSpan) return ht;
    const Bucket& b = ring_[k];
    return std::min(b.ev[b.head].t, ht);
  }

  [[nodiscard]] bool empty() const noexcept { return summary_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::size_t live_processes() const noexcept { return live_count_; }

  /// Human-readable names of every live (unfinished) process, in spawn
  /// order. Processes spawned without a name report as "<unnamed>".
  [[nodiscard]] std::vector<std::string> live_process_names() const {
    std::vector<std::string> out;
    out.reserve(live_count_);
    for (const ProcessRecord* p = live_.next; p != &live_; p = p->next) {
      out.push_back(p->name.empty() ? "<unnamed>" : p->name);
    }
    return out;
  }

  /// The hang report: a DeadlockError naming every live process.
  [[nodiscard]] DeadlockError deadlock_error() const {
    return DeadlockError(live_process_names());
  }

  // Process bookkeeping: spawn() links a root frame's record in, and the
  // frame's destructor unlinks it.
  void link_process(ProcessRecord& p) noexcept {
    p.prev = live_.prev;
    p.next = &live_;
    live_.prev->next = &p;
    live_.prev = &p;
    ++live_count_;
  }
  void unlink_process(ProcessRecord& p) noexcept {
    p.prev->next = p.next;
    p.next->prev = p.prev;
    --live_count_;
  }

private:
  static constexpr Cycles kNoLimit = kNever;
  /// Near-future window, in cycles (power of two). Delays beyond it land in
  /// the overflow heap; nearly all simulation delays (store issue, mesh and
  /// eLink occupancies, barrier hops, DMA chunk drains) are far shorter.
  static constexpr std::size_t kRingSpan = 4096;
  static constexpr std::size_t kRingMask = kRingSpan - 1;
  /// Cap on the drained-bucket vectors kept for reuse (bounds idle memory).
  static constexpr std::size_t kSpareMax = 64;
  static constexpr std::size_t kWords = kRingSpan / 64;  // occupancy words
  static_assert(kWords <= 64, "the summary word has one bit per occupancy word");

  struct Event {
    Cycles t = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> h{};  // null => callback event
    std::uint32_t fn = 0;         // 1-based index into fns_ when h is null
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  /// One ring bucket. Invariant: all queued events in a bucket share the
  /// same absolute time (two times mapping to one bucket differ by at least
  /// kRingSpan and cannot both be inside the near-future window), so popping
  /// from `head` is exact (time, seq) order.
  struct Bucket {
    std::vector<Event> ev;
    std::size_t head = 0;
  };

  void push(Cycles t, std::coroutine_handle<> h, std::uint32_t fn) {
    if (t < now_) t = now_;
    const Event ev{t, seq_++, h, fn};
    if (t - now_ < kRingSpan) {
      const std::size_t k = t & kRingMask;
      Bucket& b = ring_[k];
      if (b.ev.empty()) {
        // First event in a never-used bucket: adopt a drained bucket's
        // vector so steady-state pushes never reallocate (activity shifts
        // through the ring as simulated time advances; without recycling
        // each newly touched bucket would regrow its storage from zero).
        if (b.ev.capacity() == 0 && !spare_.empty()) {
          b.ev = std::move(spare_.back());
          spare_.pop_back();
        }
        occupied_[k >> 6] |= std::uint64_t{1} << (k & 63);
        summary_ |= std::uint64_t{1} << (k >> 6);
      }
      b.ev.push_back(ev);
    } else {
      heap_.push(ev);
    }
  }

  /// Index of the bucket holding the earliest ring event, or kRingSpan when
  /// the ring is empty. All unfired ring events lie in [now_, now_ +
  /// kRingSpan), so the earliest sits in the first busy bucket at or
  /// cyclically after now_'s: the rest of now_'s word, then the later
  /// words, then (wrapping) the lowest busy word, which may be now_'s own
  /// below its bit.
  [[nodiscard]] std::size_t ring_front() const noexcept {
    const std::size_t at = now_ & kRingMask;
    if (!ring_[at].ev.empty()) return at;
    if (summary_ == 0) return kRingSpan;
    const std::size_t w = at >> 6;
    if (const std::uint64_t m = occupied_[w] & (~std::uint64_t{0} << (at & 63))) {
      return (w << 6) | static_cast<std::size_t>(std::countr_zero(m));
    }
    const std::uint64_t later = summary_ & ~(~std::uint64_t{0} >> (63 - w));
    const auto v = static_cast<std::size_t>(std::countr_zero(later != 0 ? later : summary_));
    return (v << 6) | static_cast<std::size_t>(std::countr_zero(occupied_[v]));
  }

  /// Pop the next event in (time, seq) order, merging the ring front with
  /// the heap top. Returns false (and leaves state untouched) if the queue
  /// is empty or the next event lies beyond `limit`.
  bool pop(Event& out, Cycles limit) {
    const std::size_t k = ring_front();
    Bucket* b = k == kRingSpan ? nullptr : &ring_[k];
    const bool have_heap = !heap_.empty();
    if (b == nullptr && !have_heap) return false;
    bool from_ring;
    if (b == nullptr) {
      from_ring = false;
    } else if (!have_heap) {
      from_ring = true;
    } else {
      const Event& r = b->ev[b->head];
      const Event& h = heap_.top();
      from_ring = r.t < h.t || (r.t == h.t && r.seq < h.seq);
    }
    const Event& next = from_ring ? b->ev[b->head] : heap_.top();
    if (next.t > limit) return false;
    out = next;
    if (from_ring) {
      if (++b->head == b->ev.size()) {
        b->ev.clear();
        b->head = 0;
        if (spare_.size() < kSpareMax && b->ev.capacity() != 0) {
          spare_.push_back(std::move(b->ev));
        }
        if ((occupied_[k >> 6] &= ~(std::uint64_t{1} << (k & 63))) == 0) {
          summary_ &= ~(std::uint64_t{1} << (k >> 6));
        }
      }
    } else {
      heap_.pop();
    }
    now_ = out.t;
    ++processed_;
    return true;
  }

  void dispatch(const Event& ev) {
    if (ev.h) {
      ev.h.resume();
    } else {
      const std::uint32_t idx = ev.fn - 1;
      auto fn = std::move(fns_[idx]);
      fns_[idx] = nullptr;
      fn_free_.push_back(idx);
      fn();
    }
  }

  void drain(Cycles limit) {
    Event ev;
    while (pop(ev, limit)) dispatch(ev);
  }

  std::vector<Bucket> ring_;
  std::vector<std::vector<Event>> spare_;  // drained bucket storage for reuse
  std::array<std::uint64_t, kWords> occupied_{};  // bit k: ring_[k] is non-empty
  std::uint64_t summary_ = 0;                     // bit w: occupied_[w] != 0
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<std::function<void()>> fns_;
  std::vector<std::uint32_t> fn_free_;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t processed_ = 0;
  // Live root processes: a circular list through their root frames, headed
  // by this sentinel, in spawn order (deadlock reports name them in order).
  ProcessRecord live_;
  std::size_t live_count_ = 0;
};

/// Awaitable: suspend the current process for `d` cycles.
struct Delay {
  Engine& engine;
  Cycles d;
  [[nodiscard]] bool await_ready() const noexcept { return d == 0; }
  void await_suspend(std::coroutine_handle<> h) const { engine.schedule_in(d, h); }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline Delay delay(Engine& e, Cycles d) { return Delay{e, d}; }

}  // namespace epi::sim
