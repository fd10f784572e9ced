#pragma once
// FaultInjector: applies a FaultPlan to a running machine.
//
// The injector is deliberately passive -- it registers no engine events of
// its own, so an *empty* plan perturbs nothing: every queue, every arbiter
// and every (time, seq) event ordering is bit-identical to a run with no
// injector attached (tests/determinism_test.cpp pins this against the
// golden hashes). Faults take effect only at the existing decision points
// the subsystems already pass through, via small queries:
//
//   * core kills/stalls  -- TimedOp (the awaitable behind CoreCtx::compute
//     and friends) asks intercept_core_op(); a killed core's resumption is
//     parked forever, a stalled core's is deferred to the window end. The
//     eLink request path asks park_if_dead() so a core cannot die "into"
//     the off-chip FIFOs.
//   * mesh link failures -- MeshNetwork::reserve_path asks
//     link_clear_from() per XY hop and falls back to YX routing (see
//     mesh.hpp) when a permanent outage blocks the XY path.
//   * eLink outages      -- ELink::pump defers grants until
//     elink_available(); a permanent outage silences the pump and the
//     scheduler's watchdog turns the resulting stall into a FaultReport.
//   * bit flips          -- corrupt_elink() flips one seeded-random bit in
//     a just-committed transfer (callers CRC-check and retry); MemFlip
//     events ride the mem::MemoryHook on_write path and flip bits in
//     freshly written DRAM/scratchpad ranges, silently, as a wire or cell
//     fault would.
//
// All random choices come from one Rng seeded by the plan, consumed in
// engine-deterministic order, so a plan replays byte-identically.

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/coords.hpp"
#include "fault/plan.hpp"
#include "mem/memory_system.hpp"
#include "sim/random.hpp"
#include "trace/counters.hpp"

namespace epi::trace {
class Tracer;
}

namespace epi::fault {

/// A detected failure, produced by the detection layers (watchdog, CRC
/// retry exhaustion, result validation) -- never by the injector itself,
/// which only models the silent hardware fault.
struct FaultReport {
  sim::Cycles detected = 0;            // when the failure was noticed
  sim::Cycles since = 0;               // when the underlying fault struck
  std::uint32_t job = ~std::uint32_t{0};  // affected job id, if any
  std::string kind;                    // "watchdog", "transfer", "corrupt-result"
  std::string detail;
};

/// Render a report as one deterministic log line.
[[nodiscard]] std::string to_line(const FaultReport& r);

class FaultInjector;

/// The instruments a machine's layers report to. machine::Machine owns one;
/// the mesh, both eLinks, every DMA channel and the injector itself read it
/// through a pointer taken at construction, so arming or disarming an
/// instrument sets one pointer here and no layer keeps a copy. Null means
/// not armed.
struct Instruments {
  trace::Tracer* tracer = nullptr;
  FaultInjector* faults = nullptr;
};

class FaultInjector final : public mem::MemoryHook {
public:
  FaultInjector(FaultPlan plan, sim::Engine& engine, mem::MemorySystem& mem,
                arch::MeshDims dims, const Instruments& inst);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// True when the plan contains any fault (recovery layers gate their
  /// bookkeeping on this so an empty plan costs nothing).
  [[nodiscard]] bool armed() const noexcept { return !plan_.events.empty(); }

  // ---- core kills and stalls (asked by TimedOp / the eLink) -------------

  [[nodiscard]] bool core_has_faults(arch::CoreCoord c) const noexcept {
    return !cores_.empty() && cores_[dims_.index_of(c)].any;
  }
  /// Called when core `c` is about to suspend for a `d`-cycle operation.
  /// Returns true if the injector took ownership of the resumption (core
  /// killed: parked forever; core stalled: deferred past the window).
  bool intercept_core_op(arch::CoreCoord c, sim::Cycles d, std::coroutine_handle<> h);
  /// Whether `c` is dead at the current cycle; the caller then drops the
  /// resumption it was about to queue, parking it forever.
  bool park_if_dead(arch::CoreCoord c);
  /// When did `c` become unresponsive, as of `now`? kNever if it is live.
  [[nodiscard]] sim::Cycles unresponsive_since(arch::CoreCoord c,
                                               sim::Cycles now) const noexcept;

  // ---- mesh links (asked by MeshNetwork::reserve_path) ------------------

  [[nodiscard]] bool any_link_faults() const noexcept { return !links_.empty(); }
  /// Earliest start >= `t` at which directed link `li` (router*4 + dir) is
  /// clear for an `occ`-cycle burst; kNever if a permanent outage blocks it.
  [[nodiscard]] sim::Cycles link_clear_from(std::size_t li, sim::Cycles t,
                                            sim::Cycles occ) const noexcept;
  void note_reroute(arch::CoreCoord src, arch::CoreCoord dst);

  // ---- eLink outages and corruption -------------------------------------

  /// Earliest cycle >= `now` the eLink (`kind` 0 = write, 1 = read) may
  /// grant; kNever under a permanent outage. Logs each outage window once.
  sim::Cycles elink_available(unsigned kind, sim::Cycles now);
  [[nodiscard]] bool any_corruption() const noexcept {
    return elink_flip_budget_[0] + elink_flip_budget_[1] != 0;
  }
  /// Maybe flip one bit in the just-committed transfer to [dst, dst+bytes)
  /// (consumes a flip token if one is armed). Returns true if corrupted.
  bool corrupt_elink(unsigned kind, arch::Addr dst, std::uint32_t bytes,
                     arch::CoreCoord issuer);
  /// A CRC-checked transfer detected a mismatch and is retrying.
  void note_transfer_retry(arch::CoreCoord issuer);

  // ---- observability -----------------------------------------------------

  /// Deterministic application log: one line per injected fault effect.
  [[nodiscard]] const std::vector<std::string>& injections() const noexcept {
    return injections_;
  }
  [[nodiscard]] const trace::Counters& counters() const noexcept { return counters_; }

  // ---- mem::MemoryHook (MemFlip write corruption) ------------------------

  void on_write(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                sim::Cycles now) override;
  void on_read(arch::Addr, std::size_t, arch::CoreCoord, sim::Cycles) override {}
  void on_sync(arch::CoreCoord, sim::Cycles) override {}

private:
  struct StallWindow {
    sim::Cycles from = 0, until = 0;
    bool noted = false;
  };
  struct CoreFault {
    sim::Cycles kill_at = kNever;
    bool kill_noted = false;
    bool any = false;
    std::vector<StallWindow> stalls;  // sorted by `from`
  };
  struct Window {
    sim::Cycles from = 0, until = kNever;  // until == kNever: permanent
    bool noted = false;
  };
  struct FlipBudget {
    sim::Cycles from = 0, until = kNever;
    std::uint32_t remaining = 0;
  };
  struct MemFlipBudget {
    FaultEvent ev{};
    std::uint32_t remaining = 0;
  };

  void note(const char* kind, trace::Counters::Id counter, const std::string& detail);
  void flip_bit(arch::Addr a, std::size_t n, arch::CoreCoord issuer);

  FaultPlan plan_;
  sim::Engine* engine_;
  mem::MemorySystem* mem_;
  arch::MeshDims dims_;
  const Instruments* inst_;
  sim::Rng rng_;

  std::vector<CoreFault> cores_;            // empty when no core faults
  std::vector<std::vector<Window>> links_;  // empty when no link faults
  std::vector<Window> elink_windows_[2];
  std::vector<FlipBudget> elink_flips_[2];
  std::uint32_t elink_flip_budget_[2] = {0, 0};
  std::vector<MemFlipBudget> mem_flips_;
  std::uint32_t mem_flip_budget_ = 0;

  std::vector<std::string> injections_;
  trace::Counters counters_;
  trace::Counters::Id c_kill_, c_stall_, c_reroute_, c_elink_outage_,
      c_elink_flip_, c_mem_flip_, c_retry_;
};

/// Awaitable for a core-attributed timed operation (compute, DMA descriptor
/// setup). Identical to sim::Delay when no injector is attached or the core
/// has no planned faults -- including the zero-delay fast path -- so fault
/// support costs existing runs nothing.
struct TimedOp {
  sim::Engine& engine;
  sim::Cycles d;
  FaultInjector* inj;
  arch::CoreCoord core;

  [[nodiscard]] bool await_ready() const noexcept {
    return d == 0 && (inj == nullptr || !inj->core_has_faults(core));
  }
  void await_suspend(std::coroutine_handle<> h) const {
    if (inj != nullptr && inj->intercept_core_op(core, d, h)) return;
    engine.schedule_in(d, h);
  }
  void await_resume() const noexcept {}
};

}  // namespace epi::fault
