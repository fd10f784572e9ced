#pragma once
// A subset of the Epiphany eCore instruction set -- the instructions the
// paper's hand-tuned kernels are built from (sections VI and VII):
//   * FPU: FMADD (the workhorse: rd += rn * rm), FMUL, FADD, FSUB;
//   * IALU: MOV (imm/reg), ADD, SUB (reg/imm, setting the Z flag);
//   * memory: LDR/STR word and LDRD/STRD doubleword, with base+offset and
//     base-postmodify addressing (the paper's progressive register
//     replacement relies on postmodify);
//   * control: B, BNE, BEQ, HALT;
//   * synchronisation (section V's flag/barrier/mutex idioms, lowered to
//     single instructions so the static verifier can see them): COREID,
//     LSL, WAIT, BAR, TESTSET, plus `.dma` descriptor declarations.
//
// The eCore has 64 general registers, each holding a 32-bit float or
// integer (section VI: "a total of 64 accessible 32-bit registers").
// Doubleword ops use an even-aligned register pair.

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace epi::isa {

enum class Opcode : std::uint8_t {
  // FPU slot
  Fmadd,  // rd += rn * rm
  Fmul,   // rd = rn * rm
  Fadd,   // rd = rn + rm
  Fsub,   // rd = rn - rm
  // IALU slot
  MovImm,  // rd = imm
  MovReg,  // rd = rn
  Add,     // rd = rn + rm_or_imm  (sets Z)
  Sub,     // rd = rn - rm_or_imm  (sets Z)
  // Memory (IALU slot)
  Ldr,   // rd = mem32[rn + imm]       / postmodify: rd = mem32[rn], rn += imm
  Ldrd,  // rd,rd+1 = mem64[rn + imm]  / postmodify variant
  Str,   // mem32[rn + imm] = rd       / postmodify variant
  Strd,  // mem64[rn + imm] = rd,rd+1  / postmodify variant
  // Control (IALU slot)
  B,    // unconditional
  Bne,  // branch if Z clear
  Beq,  // branch if Z set
  Halt,
  // Synchronisation (IALU slot)
  CoreId,   // rd = this core's 12-bit mesh coreid (MOVFS rd, COREID)
  Lsl,      // rd = rn << imm  (address composition: coreid << 20)
  Wait,     // spin until mem32[rn] == imm  (flag-wait idiom)
  Bar,      // workgroup barrier rendezvous
  Testset,  // atomic: rd = mem32[rn+imm]; Z = (rd==0); if rd==0 mem32 = 1
};

[[nodiscard]] constexpr bool is_fpu(Opcode op) noexcept {
  return op == Opcode::Fmadd || op == Opcode::Fmul || op == Opcode::Fadd ||
         op == Opcode::Fsub;
}
[[nodiscard]] constexpr bool is_load(Opcode op) noexcept {
  return op == Opcode::Ldr || op == Opcode::Ldrd;
}
[[nodiscard]] constexpr bool is_store(Opcode op) noexcept {
  return op == Opcode::Str || op == Opcode::Strd;
}
[[nodiscard]] constexpr bool is_branch(Opcode op) noexcept {
  return op == Opcode::B || op == Opcode::Bne || op == Opcode::Beq;
}

struct Instruction {
  Opcode op = Opcode::Halt;
  std::uint8_t rd = 0;       // destination (or store source)
  std::uint8_t rn = 0;       // first operand / address base
  std::uint8_t rm = 0;       // second operand register (when has_imm false)
  bool has_imm = false;
  bool postmodify = false;   // memory ops: [rn], #imm
  std::int32_t imm = 0;      // immediate / displacement / branch target
};

/// A DMA descriptor declared in assembly via the `.dma` directive. The
/// fields mirror dma::DmaDescriptor (a 2-D strided copy: `outer_count`
/// rows of `inner_count` elements of `elem` bytes, inner strides applied
/// per element and outer strides applied on top when a row wraps). Kept
/// as plain integers here so isa/ stays independent of dma/.
struct DmaDecl {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t elem = 4;
  std::uint32_t inner_count = 0;
  std::int32_t src_inner_stride = 0;
  std::int32_t dst_inner_stride = 0;
  std::uint32_t outer_count = 1;
  std::int32_t src_outer_stride = 0;
  std::int32_t dst_outer_stride = 0;
  unsigned line = 0;  // 1-based source line, 0 when untracked
};

/// An assembled program: instructions plus, for diagnostics, the source
/// text and 1-based source line number of each (both empty/0 for programs
/// built by hand rather than through the assembler).
struct Program {
  std::vector<Instruction> code;
  std::vector<std::string> source;
  std::vector<unsigned> lines;
  std::vector<DmaDecl> dma;  // `.dma` declarations, in source order

  [[nodiscard]] std::size_t size() const noexcept { return code.size(); }
  /// Source line of instruction `i`, or 0 when not tracked.
  [[nodiscard]] unsigned line_of(std::size_t i) const noexcept {
    return i < lines.size() ? lines[i] : 0;
  }
};

/// The 64-entry register file. Values are raw 32-bit words; helpers view
/// them as float or int32.
class RegFile {
public:
  static constexpr unsigned kCount = 64;

  [[nodiscard]] std::uint32_t raw(unsigned r) const { return regs_.at(r); }
  void set_raw(unsigned r, std::uint32_t v) { regs_.at(r) = v; }

  [[nodiscard]] float f(unsigned r) const { return std::bit_cast<float>(regs_.at(r)); }
  void set_f(unsigned r, float v) { regs_.at(r) = std::bit_cast<std::uint32_t>(v); }

  [[nodiscard]] std::int32_t i(unsigned r) const {
    return static_cast<std::int32_t>(regs_.at(r));
  }
  void set_i(unsigned r, std::int32_t v) {
    regs_.at(r) = static_cast<std::uint32_t>(v);
  }

private:
  std::array<std::uint32_t, kCount> regs_{};
};

}  // namespace epi::isa
