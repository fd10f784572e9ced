#include "isa/interpreter.hpp"

#include <algorithm>
#include <cstring>

namespace epi::isa {

namespace {

/// An FPU result is unavailable as an FPU operand/result or store source
/// until issue + this many cycles (the paper's measured 5).
constexpr std::uint64_t kFpuResultLatency = 5;
/// A load result is available at issue + this many cycles.
constexpr std::uint64_t kLoadLatency = 1;
/// Extra cycles after a taken branch.
constexpr std::uint64_t kTakenBranchPenalty = 3;

/// Per-register availability times for the two hazard classes.
struct Scoreboard {
  // Earliest cycle the register may be consumed by an FPU op or a store
  // data operand (FPU results impose the 5-cycle window).
  std::array<std::uint64_t, RegFile::kCount> fpu_ready{};
  // Earliest cycle the register may be consumed by anything (load-use and
  // plain IALU dependencies).
  std::array<std::uint64_t, RegFile::kCount> ready{};
};

std::uint32_t load32(std::span<const std::byte> mem, std::size_t addr, std::size_t pc) {
  if (addr + 4 > mem.size()) throw ExecutionError(pc, "load out of memory bounds");
  std::uint32_t v;
  std::memcpy(&v, mem.data() + addr, 4);
  return v;
}

void store32(std::span<std::byte> mem, std::size_t addr, std::uint32_t v, std::size_t pc) {
  if (addr + 4 > mem.size()) throw ExecutionError(pc, "store out of memory bounds");
  std::memcpy(mem.data() + addr, &v, 4);
}

}  // namespace

ExecStats execute(const Program& prog, RegFile& regs, std::span<std::byte> memory,
                  const InterpreterConfig& cfg) {
  ExecStats st;
  Scoreboard sb;
  bool z_flag = false;

  std::size_t pc = 0;
  std::uint64_t cycle = 0;
  // The issue slots: last cycle each was used (at most one per cycle each).
  std::uint64_t fpu_slot_free = 0;
  std::uint64_t ialu_slot_free = 0;
  std::uint64_t prev_issue = 0;  // in-order: next instr issues no earlier

  while (true) {
    if (pc >= prog.size()) throw ExecutionError(pc, "fell off the end (missing halt?)");
    if (st.instructions > cfg.max_instructions) {
      throw ExecutionError(pc, "instruction budget exceeded (infinite loop?)");
    }
    const Instruction& ins = prog.code[pc];
    if (ins.op == Opcode::Halt) {
      st.cycles = std::max({cycle, fpu_slot_free, ialu_slot_free});
      return st;
    }

    // ---- compute the earliest legal issue cycle -------------------------
    // `earliest` collects ordinary dependencies; `hazard_floor` the FPU
    // result-window constraints, accounted separately so a hazard is only
    // charged when it actually delays issue beyond the structural limits.
    std::uint64_t earliest = prev_issue;
    std::uint64_t hazard_floor = 0;
    const bool fpu = is_fpu(ins.op);

    const auto need = [&](unsigned r, bool as_fpu_or_storedata) {
      earliest = std::max(earliest, sb.ready[r]);
      if (as_fpu_or_storedata) {
        hazard_floor = std::max(hazard_floor, sb.fpu_ready[r]);
      }
    };

    switch (ins.op) {
      case Opcode::Fmadd:
        need(ins.rd, true);  // accumulator is also a source
        [[fallthrough]];
      case Opcode::Fmul:
      case Opcode::Fadd:
      case Opcode::Fsub:
        need(ins.rn, true);
        need(ins.rm, true);
        if (ins.op != Opcode::Fmadd) need(ins.rd, true);  // WAW on result
        break;
      case Opcode::MovReg:
        need(ins.rn, false);
        break;
      case Opcode::Add:
      case Opcode::Sub:
        need(ins.rn, false);
        if (!ins.has_imm) need(ins.rm, false);
        break;
      case Opcode::Ldr:
      case Opcode::Ldrd:
        need(ins.rn, false);
        break;
      case Opcode::Str:
        need(ins.rn, false);
        need(ins.rd, true);  // store data waits out the FPU window
        break;
      case Opcode::Strd:
        need(ins.rn, false);
        need(ins.rd, true);
        need(ins.rd + 1, true);
        break;
      case Opcode::Lsl:
        need(ins.rn, false);
        break;
      case Opcode::Wait:
        need(ins.rn, false);
        break;
      case Opcode::Testset:
        need(ins.rn, false);
        break;
      case Opcode::MovImm:
      case Opcode::CoreId:
      case Opcode::Bar:
      case Opcode::B:
      case Opcode::Bne:
      case Opcode::Beq:
      case Opcode::Halt:
        break;
    }

    // Slot structural hazard: one FPU and one IALU issue per cycle.
    std::uint64_t issue = earliest;
    if (fpu) {
      issue = std::max(issue, fpu_slot_free);
    } else {
      issue = std::max(issue, ialu_slot_free);
    }
    if (hazard_floor > issue) {
      st.hazard_stalls += hazard_floor - issue;
      issue = hazard_floor;
    }
    if (fpu) {
      fpu_slot_free = issue + 1;
    } else {
      ialu_slot_free = issue + 1;
    }
    prev_issue = issue;
    cycle = issue;

    // ---- execute functionally -------------------------------------------
    bool branch_taken = false;
    std::size_t next_pc = pc + 1;
    switch (ins.op) {
      case Opcode::Fmadd:
        regs.set_f(ins.rd, regs.f(ins.rd) + regs.f(ins.rn) * regs.f(ins.rm));
        st.flops += 2;
        break;
      case Opcode::Fmul:
        regs.set_f(ins.rd, regs.f(ins.rn) * regs.f(ins.rm));
        st.flops += 1;
        break;
      case Opcode::Fadd:
        regs.set_f(ins.rd, regs.f(ins.rn) + regs.f(ins.rm));
        st.flops += 1;
        break;
      case Opcode::Fsub:
        regs.set_f(ins.rd, regs.f(ins.rn) - regs.f(ins.rm));
        st.flops += 1;
        break;
      case Opcode::MovImm:
        regs.set_i(ins.rd, ins.imm);
        break;
      case Opcode::MovReg:
        regs.set_raw(ins.rd, regs.raw(ins.rn));
        break;
      case Opcode::Add: {
        const std::int32_t b = ins.has_imm ? ins.imm : regs.i(ins.rm);
        regs.set_i(ins.rd, regs.i(ins.rn) + b);
        z_flag = regs.i(ins.rd) == 0;
        break;
      }
      case Opcode::Sub: {
        const std::int32_t b = ins.has_imm ? ins.imm : regs.i(ins.rm);
        regs.set_i(ins.rd, regs.i(ins.rn) - b);
        z_flag = regs.i(ins.rd) == 0;
        break;
      }
      case Opcode::Ldr:
      case Opcode::Ldrd: {
        const std::uint32_t base = static_cast<std::uint32_t>(regs.i(ins.rn));
        const std::size_t addr =
            ins.postmodify ? base : base + static_cast<std::uint32_t>(ins.imm);
        const std::size_t span = ins.op == Opcode::Ldrd ? 8 : 4;
        if (cfg.solo_sync && addr + span > memory.size()) {
          // Remote scratchpad in solo mode: no peer image, read as zero.
          regs.set_raw(ins.rd, 0);
          if (ins.op == Opcode::Ldrd) regs.set_raw(ins.rd + 1, 0);
        } else {
          regs.set_raw(ins.rd, load32(memory, addr, pc));
          if (ins.op == Opcode::Ldrd) {
            regs.set_raw(ins.rd + 1, load32(memory, addr + 4, pc));
          }
        }
        if (ins.postmodify) regs.set_i(ins.rn, regs.i(ins.rn) + ins.imm);
        break;
      }
      case Opcode::Str:
      case Opcode::Strd: {
        const std::uint32_t base = static_cast<std::uint32_t>(regs.i(ins.rn));
        const std::size_t addr =
            ins.postmodify ? base : base + static_cast<std::uint32_t>(ins.imm);
        const std::size_t span = ins.op == Opcode::Strd ? 8 : 4;
        if (cfg.solo_sync && addr + span > memory.size()) {
          // Remote scratchpad in solo mode: drop the store.
        } else {
          store32(memory, addr, regs.raw(ins.rd), pc);
          if (ins.op == Opcode::Strd) {
            store32(memory, addr + 4, regs.raw(ins.rd + 1), pc);
          }
        }
        if (ins.postmodify) regs.set_i(ins.rn, regs.i(ins.rn) + ins.imm);
        break;
      }
      case Opcode::B:
        branch_taken = true;
        break;
      case Opcode::Bne:
        branch_taken = !z_flag;
        break;
      case Opcode::Beq:
        branch_taken = z_flag;
        break;
      case Opcode::CoreId:
        regs.set_raw(ins.rd, cfg.core_id);
        break;
      case Opcode::Lsl:
        regs.set_raw(ins.rd, regs.raw(ins.rn)
                                 << static_cast<std::uint32_t>(ins.imm & 31));
        break;
      case Opcode::Wait: {
        const std::uint32_t base = regs.raw(ins.rn);
        const bool in_bounds = static_cast<std::size_t>(base) + 4 <= memory.size();
        const std::uint32_t got = in_bounds ? load32(memory, base, pc) : 0;
        if (!(in_bounds && got == static_cast<std::uint32_t>(ins.imm)) &&
            !cfg.solo_sync) {
          throw ExecutionError(pc, "wait condition never satisfied "
                                   "(flag not set; solo execution)");
        }
        break;
      }
      case Opcode::Bar:
        if (!cfg.solo_sync) {
          throw ExecutionError(pc, "bar requires workgroup execution "
                                   "(solo interpreter cannot rendezvous)");
        }
        break;
      case Opcode::Testset: {
        const std::uint32_t base = regs.raw(ins.rn);
        const std::size_t addr = base + static_cast<std::uint32_t>(ins.imm);
        std::uint32_t old = 0;
        if (addr + 4 <= memory.size()) {
          old = load32(memory, addr, pc);
          if (old == 0) store32(memory, addr, 1, pc);
        } else if (!cfg.solo_sync) {
          throw ExecutionError(pc, "testset out of memory bounds");
        }
        regs.set_raw(ins.rd, old);
        z_flag = old == 0;
        break;
      }
      case Opcode::Halt:
        break;  // handled above
    }
    if (branch_taken) {
      next_pc = static_cast<std::size_t>(ins.imm);
      // Taken branch flushes: nothing issues for the penalty window.
      const std::uint64_t resume = issue + 1 + kTakenBranchPenalty;
      fpu_slot_free = std::max(fpu_slot_free, resume);
      ialu_slot_free = std::max(ialu_slot_free, resume);
      prev_issue = std::max(prev_issue, resume);
      st.branch_stalls += kTakenBranchPenalty;
    }

    // ---- writeback availability ------------------------------------------
    switch (ins.op) {
      case Opcode::Fmadd:
      case Opcode::Fmul:
      case Opcode::Fadd:
      case Opcode::Fsub:
        sb.ready[ins.rd] = issue + 1;
        sb.fpu_ready[ins.rd] = issue + kFpuResultLatency;
        ++st.fpu_ops;
        break;
      case Opcode::Ldr:
        sb.ready[ins.rd] = issue + kLoadLatency;
        sb.fpu_ready[ins.rd] = issue + kLoadLatency;
        break;
      case Opcode::Ldrd:
        sb.ready[ins.rd] = sb.ready[ins.rd + 1] = issue + kLoadLatency;
        sb.fpu_ready[ins.rd] = sb.fpu_ready[ins.rd + 1] = issue + kLoadLatency;
        break;
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::CoreId:
      case Opcode::Lsl:
        sb.ready[ins.rd] = issue + 1;
        sb.fpu_ready[ins.rd] = issue + 1;
        break;
      case Opcode::Testset:
        sb.ready[ins.rd] = issue + kLoadLatency;
        sb.fpu_ready[ins.rd] = issue + kLoadLatency;
        break;
      default:
        break;
    }
    if ((ins.op == Opcode::Ldr || ins.op == Opcode::Ldrd || ins.op == Opcode::Str ||
         ins.op == Opcode::Strd) &&
        ins.postmodify) {
      sb.ready[ins.rn] = issue + 1;
      sb.fpu_ready[ins.rn] = issue + 1;
    }

    ++st.instructions;
    pc = next_pc;
  }
}

}  // namespace epi::isa
