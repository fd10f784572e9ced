#pragma once
// Exclusive core ownership for workgroups.
//
// The paper's eSDK happily lets two e_open calls claim the same eCores --
// whichever kernel starts last silently clobbers the other's scratchpad and
// status words. Once the chip is treated as a shared, schedulable resource
// (epi::sched runs many workgroups concurrently), that footgun becomes a
// correctness bug, so the machine now tracks which cores are reserved.
//
// host::Workgroup acquires its rectangle on construction and releases it on
// destruction (RAII); overlapping opens fail fast with an error naming the
// contested core, and an empty or off-mesh rectangle is rejected here, so
// every path that builds a Workgroup is validated once. Tickets make
// release idempotent.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coords.hpp"

namespace epi::machine {

/// Per-core reservation table. Not a policy layer: placement decisions live
/// in epi::sched::MeshAllocator; this enforces that whatever was decided is
/// mutually exclusive.
class CoreReservations {
public:
  explicit CoreReservations(arch::MeshDims dims)
      : dims_(dims), owner_(dims.core_count(), kFree) {}

  /// Claim the rows x cols rectangle at `origin`. Returns a ticket to hand
  /// back to release(). Throws std::out_of_range for an empty rectangle or
  /// one that leaves the mesh, and std::runtime_error naming the first core
  /// already held by another workgroup.
  std::uint32_t acquire(arch::CoreCoord origin, unsigned rows, unsigned cols) {
    if (rows == 0 || cols == 0) {
      throw std::out_of_range("empty reservation rectangle");
    }
    if (origin.row > dims_.rows || rows > dims_.rows - origin.row ||
        origin.col > dims_.cols || cols > dims_.cols - origin.col) {
      throw std::out_of_range("reservation rectangle outside the mesh");
    }
    for (unsigned r = 0; r < rows; ++r) {
      for (unsigned c = 0; c < cols; ++c) {
        const arch::CoreCoord cc{origin.row + r, origin.col + c};
        const std::uint32_t held = owner_[dims_.index_of(cc)];
        if (held != kFree) {
          throw std::runtime_error(
              "core " + arch::to_string(cc) + " is already reserved by workgroup #" +
              std::to_string(held) +
              ": workgroups own their cores exclusively; destroy the previous "
              "Workgroup (or let it go out of scope) before reopening its cores");
        }
      }
    }
    const std::uint32_t ticket = next_ticket_++;
    for (unsigned r = 0; r < rows; ++r) {
      for (unsigned c = 0; c < cols; ++c) {
        owner_[dims_.index_of({origin.row + r, origin.col + c})] = ticket;
      }
    }
    reserved_ += rows * cols;
    return ticket;
  }

  /// Release every core held under `ticket` within the rectangle. No-op for
  /// cells the ticket does not own (double release is harmless).
  void release(arch::CoreCoord origin, unsigned rows, unsigned cols,
               std::uint32_t ticket) noexcept {
    for (unsigned r = 0; r < rows; ++r) {
      for (unsigned c = 0; c < cols; ++c) {
        const arch::CoreCoord cc{origin.row + r, origin.col + c};
        if (!dims_.contains(cc)) continue;
        std::uint32_t& cell = owner_[dims_.index_of(cc)];
        if (cell == ticket) {
          cell = kFree;
          --reserved_;
        }
      }
    }
  }

  [[nodiscard]] unsigned reserved_count() const noexcept { return reserved_; }

private:
  static constexpr std::uint32_t kFree = 0;

  arch::MeshDims dims_;
  std::vector<std::uint32_t> owner_;  // ticket per core; kFree = unreserved
  std::uint32_t next_ticket_ = 1;
  unsigned reserved_ = 0;
};

}  // namespace epi::machine
