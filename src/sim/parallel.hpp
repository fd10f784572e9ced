#pragma once
// Conservative discrete-event execution over spatial domains.
//
// The machine model partitions naturally at chip boundaries: a
// machine::Machine owns its own Engine, memory system, mesh and eLinks, so
// a multi-chip xMesh cluster is a set of independent event queues coupled
// only by inter-chip traffic. Every such coupling pays at least the xMesh
// bridge's minimum latency (noc::XMeshBridge::min_latency) -- and that
// bound is exactly the *lookahead* a conservative PDES scheme needs.
//
// Execution proceeds in synchronous windows (a YAWNS-style lower-bound-
// timestamp loop):
//
//   1. every domain's outbox (messages sent to it in the previous window)
//      is sorted by (deliver time, tie-break key, source domain, send
//      order) and injected into the domain's engine -- a deterministic
//      merge;
//   2. the earliest pending work across all domains, T_min, opens the
//      window [T_min, T_min + lookahead);
//   3. every domain, in id order, advances through events strictly below
//      the window end. Cross-domain sends land in the destination's outbox
//      and, by the lookahead contract, deliver at or after the window end
//      -- so no domain ever receives a message from its own past.
//
// Determinism: the window schedule is a pure function of domain state, and
// domains interact only through the merged outboxes, so reports, traces
// and decision logs are byte-identical from run to run; the determinism
// goldens pin this. The loop runs on the calling thread: a window holds
// only microseconds of work per domain, and advancing a window's domains
// on worker threads measured slower than this loop on a 4-core machine
// (EXPERIMENTS.md).

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace epi::sim {

using DomainId = std::uint32_t;

/// One spatial partition of the simulated machine (in practice: one chip
/// plus everything host-side that drives it). The executor calls these
/// one domain at a time, so implementations need no synchronisation.
class Domain {
public:
  virtual ~Domain() = default;

  /// The domain's event engine (inbound messages are injected here).
  virtual Engine& engine() = 0;

  /// Consume local work with timestamps strictly below `limit`: engine
  /// events plus any untimed host-side orchestration they unblock.
  /// Cross-domain effects must go through ParallelEngine::send.
  virtual void advance(Cycles limit) = 0;

  /// Earliest pending local work (engine event or host horizon), or
  /// Engine::kNever when the domain is idle and waiting only on peers.
  virtual Cycles next_time() = 0;

  /// Called once at global idle: names of work that never finished (empty
  /// when the domain terminated cleanly). Default: live sim processes.
  virtual std::vector<std::string> unfinished() {
    return engine().live_process_names();
  }
};

struct ParallelStats {
  std::uint64_t windows = 0;      // synchronisation windows executed
  std::uint64_t barriers = 0;     // always 0: no threads, no barriers; kept
                                  // so existing harnesses that read it build
  std::uint64_t messages = 0;     // cross-domain messages delivered
  Cycles lookahead = 0;           // window width (min cross-domain latency)
  Cycles horizon = 0;             // T_min of the last window opened
};

/// The conservative windowed executor. Domains are registered once, then
/// run() drives them to global completion. Not reusable.
class ParallelEngine {
public:
  /// `lookahead` is the minimum cross-domain latency: every send must
  /// deliver at least this many cycles after the sender's current time.
  explicit ParallelEngine(Cycles lookahead);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Register a domain (not owned). Returns its id.
  DomainId add_domain(Domain& d);

  /// Route a cross-domain event: run `deliver` on domain `dst` at cycle
  /// `at`. Must be called from inside `src`'s advance (route pre-run
  /// traffic through an engine event on the source domain instead).
  /// Ties at the same cycle are broken by (key, src, send order), so give
  /// semantically concurrent messages distinct stable keys (e.g. global
  /// job ids). Throws if `at` violates the lookahead contract.
  void send(DomainId src, DomainId dst, Cycles at, std::uint64_t key,
            std::function<void()> deliver);

  /// Drive all domains to completion. Throws DeadlockError if domains
  /// report unfinished work at global idle; after a domain throws, the
  /// current window completes, no further window opens, and the exception
  /// of the lowest-id failing domain is rethrown.
  void run();

  [[nodiscard]] const ParallelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Cycles lookahead() const noexcept { return lookahead_; }

private:
  struct Msg {
    Cycles at = 0;
    std::uint64_t key = 0;
    DomainId src = 0;
    std::uint64_t seq = 0;  // send order (last-resort tie-break)
    std::function<void()> deliver;
  };

  void flush_inbound(DomainId dst);
  // Run `f`, parking any exception as domain `d`'s error.
  template <typename F>
  void guarded(DomainId d, F&& f);

  Cycles lookahead_;
  std::vector<Domain*> domains_;
  std::vector<std::vector<Msg>> outbox_;     // per destination domain
  std::vector<std::exception_ptr> errors_;   // per domain
  std::uint64_t send_seq_ = 0;
  bool failed_ = false;
  ParallelStats stats_;
  bool ran_ = false;
};

}  // namespace epi::sim
