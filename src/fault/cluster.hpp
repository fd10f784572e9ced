#pragma once
// Cluster-level fault injection: chip-scoped events of a FaultPlan.
//
// The machine injector (fault/injector.hpp) owns faults *inside* one chip;
// this class owns the kinds that only exist once chips tile into an xMesh
// cluster: whole-chip crashes and host stalls, directed bridge-link outages
// (optionally flapping), and dropped or bit-flipped completion notices.
// Like the machine injector it is passive and seed-deterministic -- it
// never schedules events of its own; the cluster scheduler *asks* it
// ("does this chip crash?", "when is this link clear?", "does this notice
// survive?") at points it already visits, so an empty or chip-fault-free
// plan leaves the run bit-identical to an uninstrumented one.
//
// Ownership: every mutable member is per-chip (notice budgets, rng,
// injection log) and only ever touched while that chip's domain advances;
// the schedules (crash cycles, stall and outage windows) are immutable
// after construction. A chip's draws therefore depend only on its own
// history, never on the order in which domains are advanced.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "sim/random.hpp"

namespace epi::fault {

class ClusterInjector {
public:
  /// Validates chip coordinates against the given grid; throws FaultError
  /// when the plan declares a different grid than the cluster runs.
  ClusterInjector(const FaultPlan& plan, unsigned chip_rows, unsigned chip_cols);

  /// True when the plan carries at least one chip-scoped event. The whole
  /// failover stack (heartbeats, watchdogs, health footer) is gated on this
  /// so plans without chip faults keep their historical bytes.
  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] unsigned chips() const noexcept { return rows_ * cols_; }

  /// The machine-level events scoped to `chip`, as a standalone plan for
  /// that chip's Machine::enable_faults (same seed as the cluster plan).
  [[nodiscard]] FaultPlan machine_plan(unsigned chip) const;

  // ---- static schedule (read-only after construction) --------------------
  /// Cycle the chip dies, or fault::kNever for a healthy chip.
  [[nodiscard]] sim::Cycles crash_at(unsigned chip) const;
  /// 0 when the chip's host runtime is live at `now`, else the cycle the
  /// current freeze window ends (engine events still drain while frozen;
  /// only the scheduler/failover pump stops).
  [[nodiscard]] sim::Cycles host_thaw(unsigned chip, sim::Cycles now) const;
  /// First cycle strictly after `now` at which a freeze window starts, or
  /// kNever. The chip pump must not run past this boundary.
  [[nodiscard]] sim::Cycles next_freeze(unsigned chip, sim::Cycles now) const;
  /// Earliest cycle >= t the directed bridge link src->dst is up, or kNever
  /// when a permanent outage covers every later cycle.
  [[nodiscard]] sim::Cycles xmesh_clear(unsigned src, unsigned dst,
                                        sim::Cycles t) const;

  // ---- notice-path injection (per-sending-chip state; call only while
  //      `chip` advances) --------------------------------------------------
  /// Consume a drop budget if one is armed at `now`: the notice is lost.
  [[nodiscard]] bool drop_notice(unsigned chip, sim::Cycles now);
  /// Flip one seeded-random bit of `payload` if a flip budget is armed (the
  /// receiver's CRC check catches it). Empty payloads are left alone.
  [[nodiscard]] bool flip_notice(unsigned chip, sim::Cycles now,
                                 std::string& payload);

  /// Deterministic injection log of chip-scoped actions taken on `chip`.
  [[nodiscard]] const std::vector<std::string>& injections(unsigned chip) const;
  [[nodiscard]] std::uint64_t notices_dropped(unsigned chip) const;
  [[nodiscard]] std::uint64_t notices_flipped(unsigned chip) const;

private:
  struct Window {
    sim::Cycles from = 0;
    sim::Cycles until = 0;  // kNever = permanent
  };
  struct Budget {
    sim::Cycles from = 0;
    sim::Cycles until = 0;  // kNever = armed until the budget is spent
    std::uint32_t left = 0;
  };
  struct ChipState {
    sim::Cycles crash = kNever;
    std::vector<Window> stalls;
    std::vector<Budget> drops;
    std::vector<Budget> flips;
    sim::Rng rng{0};  // which bit flips; re-seeded per chip in the ctor
    std::vector<std::string> log;
    std::uint64_t dropped = 0;
    std::uint64_t flipped = 0;
  };

  unsigned rows_ = 0;
  unsigned cols_ = 0;
  bool armed_ = false;
  std::uint64_t seed_ = 1;
  std::vector<FaultEvent> machine_events_;  // chip-tagged machine faults
  std::vector<ChipState> chips_;
  // Directed link outages (flapping pre-expanded into window lists).
  std::map<std::pair<unsigned, unsigned>, std::vector<Window>> outages_;
};

}  // namespace epi::fault
