#pragma once
// epi-verify: whole-workgroup static race/deadlock verification.
//
// The single-core passes (lint.hpp) see one program and one scratchpad.
// The paper's real hazards are cross-core: a producer stores into a
// neighbour's scratchpad through the flat (coreid<<20) address map and
// raises a flag there, and the consumer must wait on the flag before
// reading (the Listing-1/2 defect is reading without the wait). This
// verifier takes every core's assembled program, resolves remote
// store/load targets symbolically through arch::AddressMap (constant and
// constant-stride addresses, including coreid<<20 composition via
// COREID/LSL), builds a cross-core happens-before graph from flag
// writes/waits (STR/WAIT), barriers (BAR) and mutexes (TESTSET), and
// reports statically -- with no simulation:
//
//   pass                 severity  what it reports
//   -------------------  --------  ----------------------------------------
//   wg-race              error     read-after-remote-write with no
//                                  happens-before path between the writer's
//                                  store and the reader's load (Listing-1/2)
//   wg-flag-deadlock     error     WAIT on a flag word no core ever writes
//                                  (and the host did not preload)
//   wg-flag-cycle        error     circular flag-wait chains: releases
//                                  exist but every one is blocked behind
//                                  another unsatisfied wait
//   wg-barrier-mismatch  error     cores execute different numbers of BARs
//                                  (participation-count mismatch deadlock)
//   wg-out-of-group      error     store/load targeting a mapped core
//                                  outside this workgroup's rectangle
//   wg-unmapped-core     error     global address whose coreid maps to no
//                                  core on the mesh (and is not external)
//   wg-remote-extent     error     remote access past the target core's
//                                  32 KB scratchpad (or external window)
//   wg-remote-bank       warning   remote access straddling an 8 KB bank
//                                  boundary of the target scratchpad
//   wg-dma               error     .dma descriptor whose element size,
//                                  counts, alignment, or strided span is
//                                  invalid against the 32 KB scratchpad /
//                                  external window / group rectangle
//
// Analysis model (documented assumptions):
//   * addresses come from the access model the single-core passes use
//     (lint/dataflow.hpp), with the analyzed core's COREID known; accesses
//     whose address never becomes constant (or constant-strided in a
//     counted self-loop) are skipped. The per-core passes judge local
//     ranges, this verifier the remote ones;
//   * events are ordered per core by instruction index (the protocols the
//     paper uses are straight-line store/flag/wait sequences);
//   * accesses both covered by a common TESTSET-held mutex do not race
//     (lockset suppression); WAIT/TESTSET themselves are synchronisation
//     accesses and never reported as racing reads;
//   * store-store pairs are not reported (last-writer-wins is a payload
//     property, not the Listing-1/2 defect class);
//   * a `.dma` declaration is modelled as a blocking transfer anchored at
//     the first instruction at or below its source line: a Load event over
//     the source span and a Store event over the destination span join the
//     happens-before graph in program order, so the epi-shmem
//     put_with_signal idiom (DMA the payload, then raise the flag) verifies
//     clean and a get-before-signal consumer trips wg-race. Invalid
//     descriptors stay wg-dma findings and produce no events.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/address_map.hpp"
#include "arch/coords.hpp"
#include "isa/program.hpp"
#include "lint/finding.hpp"
#include "lint/lint.hpp"

namespace epi::lint {

/// One core's program, with a display name for diagnostics.
struct CoreProgram {
  isa::Program prog;
  std::string name;
};

struct WorkgroupSpec {
  unsigned rows = 1;
  unsigned cols = 1;
  /// Mesh anchor of the group's (0,0) core.
  arch::CoreCoord origin{0, 0};
  /// The mesh the group runs on (the E64G401 8x8 by default).
  arch::AddressMap map = arch::AddressMap::make({8, 8});
  /// Either one program replicated SPMD-style across every core, or
  /// rows*cols programs in row-major group order.
  std::vector<CoreProgram> cores;
  /// Global address ranges [lo, hi) the host initialises before launch:
  /// waits on flags inside them are considered satisfiable.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> host_preloaded;
  /// Options for the per-core passes (extent, code region, layout), which
  /// run on each distinct program.
  LintOptions per_core;
};

/// A finding attributed to one core of the group.
struct WgFinding {
  std::size_t core = 0;      // linear group index, row-major
  unsigned row = 0, col = 0; // group-relative coordinate
  std::string where;         // program display name
  Finding finding;

  /// "name[core R.C]:line: severity: message [pass]".
  [[nodiscard]] std::string format() const {
    return finding.format(where + "[core " + std::to_string(row) + "." +
                          std::to_string(col) + "]");
  }
};

[[nodiscard]] inline bool any_errors(const std::vector<WgFinding>& fs) {
  for (const auto& f : fs) {
    if (f.finding.severity >= Severity::Error) return true;
  }
  return false;
}

/// Run the whole-workgroup analysis. Findings are deterministic: ordered
/// by (core, instruction, pass). Throws std::invalid_argument when the
/// spec is malformed (shape does not fit the mesh, wrong program count).
[[nodiscard]] std::vector<WgFinding> verify_workgroup(const WorkgroupSpec& spec);

/// Assemble named sources into a spec: one source replicates SPMD across
/// the group, otherwise exactly rows*cols sources in row-major order.
/// Throws isa::AssemblyError (source) or std::invalid_argument (count).
[[nodiscard]] WorkgroupSpec assemble_workgroup(
    unsigned rows, unsigned cols,
    const std::vector<std::pair<std::string, std::string>>& named_sources,
    arch::CoreCoord origin = {0, 0});

}  // namespace epi::lint
