#pragma once
// Functional + cycle-scoring interpreter for the eCore ISA subset.
//
// The eCore is dual-issue in-order: one FPU instruction and one IALU /
// load-store instruction can issue per cycle (section VI: FMADD "can be
// executed concurrently with certain other integer unit instructions, such
// as loads and stores, in a super-scalar manner"). The scorer models:
//   * one FPU + one IALU issue slot per cycle, in program order;
//   * the FPU result hazard the paper measured: "the register used for
//     accumulating the result of the FMADD instruction cannot be used again
//     as a FPU source or result register, or as the source of a store
//     instruction for at least 5 cycles" -- an FPU result is unavailable to
//     those consumers until issue+5;
//   * single-cycle scratchpad loads whose results are available the next
//     cycle;
//   * the 3-cycle taken-branch penalty (section IV-B: "branching costs
//     3 cycles").
//
// Functional state (registers, flags, a memory image) is exact, so the
// paper's hand-scheduled kernels can be validated numerically *and* the
// schedule-model constants (205-cycle stencil stripe pass, 32-cycle matmul
// macro) can be reproduced by executing the real instruction streams.

#include <cstdint>
#include <span>
#include <stdexcept>

#include "isa/program.hpp"

namespace epi::isa {

class ExecutionError : public std::runtime_error {
public:
  ExecutionError(std::size_t pc, const std::string& msg)
      : std::runtime_error("pc " + std::to_string(pc) + ": " + msg) {}
};

struct ExecStats {
  std::uint64_t cycles = 0;        // issue cycle of HALT
  std::uint64_t instructions = 0;  // retired, excluding HALT
  std::uint64_t fpu_ops = 0;       // FPU instructions retired
  std::uint64_t flops = 0;         // 2 per FMADD, 1 per other FPU op
  std::uint64_t branch_stalls = 0;
  std::uint64_t hazard_stalls = 0; // cycles lost to FPU result hazards
};

/// The pipeline latencies (FPU result 5 cycles, load 1, taken branch 3:
/// the paper's measured values) are fixed in interpreter.cpp.
struct InterpreterConfig {
  /// Execution aborts past this many instructions (runaway guard).
  std::uint64_t max_instructions = 50'000'000;
  /// Value the COREID instruction reads (the core's 12-bit mesh id).
  std::uint32_t core_id = 0;
  /// Solo-execution mode for single-core cycle estimates of multi-core
  /// programs: WAIT whose condition does not hold proceeds instead of
  /// throwing, BAR is a nop, and accesses outside the local image are
  /// tolerated (stores dropped, loads return 0). Off by default -- a
  /// genuine single-core program blocking on WAIT is an error.
  bool solo_sync = false;
};

/// Execute `prog` over `regs` and a byte-addressable memory image (the
/// core's scratchpad). Returns the execution statistics.
ExecStats execute(const Program& prog, RegFile& regs, std::span<std::byte> memory,
                  const InterpreterConfig& cfg = {});

}  // namespace epi::isa
