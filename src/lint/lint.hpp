#pragma once
// epi-lint: static analysis over assembled eCore programs.
//
// The paper's programming hazards are silent: hand-scheduled assembly that
// reads a register nothing wrote, doubleword ops on odd register pairs,
// postmodify cursors that march out of the 32 KB scratchpad, stores that
// land in the kernel's own code bank. lint_program catches these
// mechanically, before a program ever runs:
//
//   pass              severity  what it reports
//   ----------------  --------  ---------------------------------------------
//   termination       error     fall-off-the-end without halt, trivially
//                               infinite loops (structural, and counters that
//                               step past zero), branch targets out of range
//   unreachable       warning   blocks no path from entry reaches
//   use-before-def    error     GPR read before any definition reaches it
//   flag-undef        warning   conditional branch before any add/sub set Z
//   dead-store        warning   register results (mov/FPU) never consumed;
//                               loads are exempt (prefetch idiom)
//   reg-pair          error     ldrd/strd on an odd register pair
//   reg-range         error     operand register number >= 64
//   mem-extent        error     access (constant or postmodify-strided)
//                               outside the declared scratchpad extent
//   code-write        error     store into the program's own code region
//   bank-straddle     warning   constant-address access crossing an 8 KB
//                               bank boundary (paper IV-B placement advice)
//   layout-*          see layout.hpp (when a layout is declared)
//
// The memory checks judge the byte ranges of the access model in
// lint/dataflow.hpp, which the workgroup verifier shares: a lightweight
// constant propagation over the CFG, plus the span each postmodify cursor
// walks in a single-block counted loop (`sub rC, rC, #k; bne`), exactly
// the shape of the paper's kernels -- so walks are bounded without symbolic
// execution. The passes judge local ranges; remote ones are the verifier's.

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/address_map.hpp"
#include "isa/program.hpp"
#include "lint/finding.hpp"
#include "lint/layout.hpp"

namespace epi::lint {

struct LintOptions {
  /// Declared data extent for the program's loads/stores (byte addresses
  /// [0, extent) are legal). Defaults to the full 32 KB scratchpad.
  std::uint32_t extent = arch::AddressMap::kLocalMemBytes;
  /// Where the program's own instructions live, for store-into-code checks.
  std::optional<Region> code_region;
  /// Declared scratchpad placement. When present, layout findings are
  /// appended and its Code regions join code_region for store checks.
  std::optional<ScratchpadLayout> layout;
};

/// Run every static pass over `prog`. Findings are ordered by instruction
/// index (layout findings last) and carry source lines when the program
/// was built by epi::isa::assemble.
[[nodiscard]] std::vector<Finding> lint_program(const isa::Program& prog,
                                                const LintOptions& opts = {});

}  // namespace epi::lint
