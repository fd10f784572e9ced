#pragma once
// Spatial partition map for multi-chip xMesh clusters.
//
// The PDES domain boundary follows the hardware: one chip (a Machine with
// its own engine, memory, mesh and eLinks) is one domain, so on-chip
// mesh/DMA/eLink traffic never crosses a domain boundary and needs no
// synchronisation with other domains. The partition map is the single
// source of truth for the chip grid, how far apart two domains sit on it
// (the xMesh hop count that prices a forward) and each chip's health.

#include <cstdint>
#include <vector>

#include "arch/coords.hpp"
#include "sim/parallel.hpp"

namespace epi::machine {

/// Chip-grade health, tracked per domain by the cluster failover layer:
/// Healthy chips take forwards; a Quarantined chip stopped answering (stale
/// heartbeats or repeated forward timeouts) and receives no new work; a
/// Dead chip crashed outright and its unresolved jobs were abandoned.
enum class ChipHealth : std::uint8_t { Healthy, Quarantined, Dead };

[[nodiscard]] constexpr const char* to_string(ChipHealth h) noexcept {
  switch (h) {
    case ChipHealth::Healthy: return "healthy";
    case ChipHealth::Quarantined: return "quarantined";
    case ChipHealth::Dead: return "dead";
  }
  return "?";
}

struct PartitionMap {
  unsigned chip_rows = 1;
  unsigned chip_cols = 1;
  arch::MeshDims chip{};  // per-chip core grid (8x8 for the E64G401)

  [[nodiscard]] unsigned chips() const noexcept { return chip_rows * chip_cols; }

  [[nodiscard]] unsigned chip_row(sim::DomainId d) const noexcept {
    return d / chip_cols;
  }
  [[nodiscard]] unsigned chip_col(sim::DomainId d) const noexcept {
    return d % chip_cols;
  }

  /// Manhattan distance on the chip grid; the xMesh flight-hop count for a
  /// forward between the two domains (0 only when a == b).
  [[nodiscard]] unsigned hops(sim::DomainId a, sim::DomainId b) const noexcept {
    const unsigned dr = chip_row(a) > chip_row(b) ? chip_row(a) - chip_row(b)
                                                  : chip_row(b) - chip_row(a);
    const unsigned dc = chip_col(a) > chip_col(b) ? chip_col(a) - chip_col(b)
                                                  : chip_col(b) - chip_col(a);
    return dr + dc;
  }

  /// Is (chip_row, chip_col) a chip of this grid? Fault-plan and forward
  /// targets are validated against this before any routing happens.
  [[nodiscard]] bool contains_chip(unsigned chip_row,
                                   unsigned chip_col) const noexcept {
    return chip_row < chip_rows && chip_col < chip_cols;
  }

  // ---- chip health (written by the failover layer; empty = all healthy).
  // During a run each domain keeps its own view of peer health, built from
  // the messages it received (no cross-domain writes); this map is the
  // folded post-run summary.
  std::vector<ChipHealth> health;

  void mark(sim::DomainId d, ChipHealth h) {
    if (health.empty()) health.assign(chips(), ChipHealth::Healthy);
    // Dead outranks Quarantined outranks Healthy: never resurrect a chip.
    if (static_cast<std::uint8_t>(h) > static_cast<std::uint8_t>(health[d])) {
      health[d] = h;
    }
  }
  [[nodiscard]] ChipHealth health_of(sim::DomainId d) const noexcept {
    return health.empty() ? ChipHealth::Healthy : health[d];
  }
  [[nodiscard]] bool usable(sim::DomainId d) const noexcept {
    return health_of(d) == ChipHealth::Healthy;
  }
};

}  // namespace epi::machine
