#pragma once
// The one memory-access model of the static analyzers, shared by the
// single-core passes (passes.cpp) and the whole-workgroup verifier
// (workgroup.cpp): register use/def walkers, the flat constant lattice and
// its block-level propagation (COREID optionally known), the counted
// self-loop recogniser, and the access-range rule that answers "which bytes
// can instruction i touch?" -- one execution's effective address, or the
// span a postmodify cursor walks over a counted loop. The address
// classifier separates local scratchpad offsets from flat global
// (coreid<<20) addresses. The analyzers only judge the ranges handed out
// here: the passes the local ones, the verifier the remote ones.

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "arch/address_map.hpp"
#include "isa/program.hpp"
#include "lint/cfg.hpp"

namespace epi::lint::dataflow {

constexpr unsigned kRegs = isa::RegFile::kCount;
constexpr unsigned kZ = kRegs;  // pseudo-register index for the Z flag
using Bits = std::bitset<kRegs + 1>;

inline std::string reg_name(unsigned r) {
  std::string s = "r";
  s += std::to_string(r);
  return s;
}

inline std::string hex(std::int64_t v) {
  char buf[24];
  if (v < 0) {
    std::snprintf(buf, sizeof buf, "-0x%llX", static_cast<unsigned long long>(-v));
  } else {
    std::snprintf(buf, sizeof buf, "0x%llX", static_cast<unsigned long long>(v));
  }
  return buf;
}

/// Registers (and kZ) an instruction reads. Register pairs past r63 are
/// clamped; the reg-pair pass reports those separately.
template <typename Fn>
void for_each_use(const isa::Instruction& ins, Fn fn) {
  using isa::Opcode;
  switch (ins.op) {
    case Opcode::Fmadd:
      fn(ins.rd);  // the accumulator is also a source
      [[fallthrough]];
    case Opcode::Fmul:
    case Opcode::Fadd:
    case Opcode::Fsub:
      fn(ins.rn);
      fn(ins.rm);
      break;
    case Opcode::MovImm:
      break;
    case Opcode::MovReg:
      fn(ins.rn);
      break;
    case Opcode::Add:
    case Opcode::Sub:
      fn(ins.rn);
      if (!ins.has_imm) fn(ins.rm);
      break;
    case Opcode::Ldr:
    case Opcode::Ldrd:
      fn(ins.rn);
      break;
    case Opcode::Str:
      fn(ins.rn);
      fn(ins.rd);
      break;
    case Opcode::Strd:
      fn(ins.rn);
      fn(ins.rd);
      if (ins.rd + 1u < kRegs) fn(ins.rd + 1u);
      break;
    case Opcode::Bne:
    case Opcode::Beq:
      fn(kZ);
      break;
    case Opcode::Lsl:
      fn(ins.rn);
      break;
    case Opcode::Wait:
      fn(ins.rn);
      break;
    case Opcode::Testset:
      fn(ins.rn);
      break;
    case Opcode::B:
    case Opcode::CoreId:
    case Opcode::Bar:
    case Opcode::Halt:
      break;
  }
}

/// Registers (and kZ) an instruction writes.
template <typename Fn>
void for_each_def(const isa::Instruction& ins, Fn fn) {
  using isa::Opcode;
  switch (ins.op) {
    case Opcode::Fmadd:
    case Opcode::Fmul:
    case Opcode::Fadd:
    case Opcode::Fsub:
    case Opcode::MovImm:
    case Opcode::MovReg:
    case Opcode::CoreId:
    case Opcode::Lsl:
      fn(ins.rd);
      break;
    case Opcode::Add:
    case Opcode::Sub:
      fn(ins.rd);
      fn(kZ);
      break;
    case Opcode::Testset:
      fn(ins.rd);
      fn(kZ);  // TESTSET reports acquire success through Z
      break;
    case Opcode::Ldr:
      fn(ins.rd);
      break;
    case Opcode::Ldrd:
      fn(ins.rd);
      if (ins.rd + 1u < kRegs) fn(ins.rd + 1u);
      break;
    default:
      break;  // Str/Strd/Wait/Bar/B/Bne/Beq/Halt write no register result
  }
  if ((isa::is_load(ins.op) || isa::is_store(ins.op)) && ins.postmodify) {
    fn(ins.rn);
  }
}

/// Every register operand of `ins` is inside the 64-entry register file.
/// Hand-built programs can carry any uint8; the per-register state below
/// must not be run over one that fails this.
[[nodiscard]] bool registers_in_range(const isa::Instruction& ins);

/// Flat constant lattice for the memory-shape passes: unknown or one int.
struct AV {
  bool known = false;
  std::int64_t v = 0;
  friend bool operator==(const AV&, const AV&) = default;
};
using State = std::array<AV, kRegs>;

inline AV merge_av(AV a, AV b) {
  if (a.known && b.known && a.v == b.v) return a;
  return AV{};
}

inline State merge_state(const State& a, const State& b) {
  State s;
  for (unsigned r = 0; r < kRegs; ++r) s[r] = merge_av(a[r], b[r]);
  return s;
}

/// Constant transfer function. When `core_id` is supplied (the workgroup
/// verifier knows which core it is analyzing), COREID produces a known
/// value, so coreid<<20 address composition resolves to constants.
inline void xfer_const(const isa::Instruction& ins, State& st,
                       std::optional<std::int64_t> core_id = std::nullopt) {
  using isa::Opcode;
  const auto bump = [&](unsigned r, std::int64_t d) {
    if (st[r].known) st[r].v += d;
  };
  switch (ins.op) {
    case Opcode::MovImm:
      st[ins.rd] = AV{true, ins.imm};
      break;
    case Opcode::MovReg:
      st[ins.rd] = st[ins.rn];
      break;
    case Opcode::Add:
    case Opcode::Sub: {
      const AV b = ins.has_imm ? AV{true, ins.imm} : st[ins.rm];
      if (st[ins.rn].known && b.known) {
        st[ins.rd] = AV{true, ins.op == Opcode::Add ? st[ins.rn].v + b.v
                                                    : st[ins.rn].v - b.v};
      } else {
        st[ins.rd] = AV{};
      }
      break;
    }
    case Opcode::CoreId:
      st[ins.rd] = core_id ? AV{true, *core_id} : AV{};
      break;
    case Opcode::Lsl:
      if (st[ins.rn].known) {
        // Shift in u32 space, then wrap like the hardware register does.
        const auto u = static_cast<std::uint32_t>(st[ins.rn].v);
        st[ins.rd] = AV{true, static_cast<std::int64_t>(static_cast<std::int32_t>(
                                  u << (ins.imm & 31)))};
      } else {
        st[ins.rd] = AV{};
      }
      break;
    case Opcode::Fmadd:
    case Opcode::Fmul:
    case Opcode::Fadd:
    case Opcode::Fsub:
      st[ins.rd] = AV{};  // float results are not tracked
      break;
    case Opcode::Ldr:
    case Opcode::Ldrd:
      st[ins.rd] = AV{};
      if (ins.op == Opcode::Ldrd && ins.rd + 1u < kRegs) st[ins.rd + 1u] = AV{};
      if (ins.postmodify) bump(ins.rn, ins.imm);
      break;
    case Opcode::Str:
    case Opcode::Strd:
      if (ins.postmodify) bump(ins.rn, ins.imm);
      break;
    case Opcode::Testset:
      st[ins.rd] = AV{};  // the old flag value is data-dependent
      break;
    case Opcode::B:
    case Opcode::Bne:
    case Opcode::Beq:
    case Opcode::Wait:
    case Opcode::Bar:
    case Opcode::Halt:
      break;
  }
}

inline std::int64_t access_size(const isa::Instruction& ins) {
  using isa::Opcode;
  return ins.op == Opcode::Ldrd || ins.op == Opcode::Strd ? 8 : 4;
}

/// What address space a constant-propagated address value lands in.
/// Immediates wrap through int32 in the assembler, so flat global
/// addresses with the top bit set (e.g. 0x80904000, core (0,1)) arrive
/// here as large-magnitude negatives; small negatives are genuine
/// address-arithmetic bugs.
enum class AddrKind {
  Negative,  // a real negative address (arithmetic walked below zero)
  Local,     // inside the 1 MB local alias window: a scratchpad offset
  Global,    // a flat global address (coreid<<20 | offset, or external)
};

struct AddrClass {
  AddrKind kind = AddrKind::Negative;
  std::uint32_t global = 0;  // the u32 address, valid when kind != Negative
};

inline AddrClass classify_addr(std::int64_t addr) {
  constexpr std::int64_t kWindow = std::int64_t{1}
                                   << arch::AddressMap::kCoreWindowBits;
  if (addr < 0) {
    // Negatives of magnitude below one core window cannot be a wrapped
    // global address of any plausible offset; they are genuine
    // address-arithmetic bugs. Larger magnitudes are globals whose top
    // bit was set (e.g. 0x80904000, core (0,1) on the E64G401).
    if (addr > -kWindow) return {AddrKind::Negative, 0};
    return {AddrKind::Global, static_cast<std::uint32_t>(addr)};
  }
  if (addr < kWindow) return {AddrKind::Local, static_cast<std::uint32_t>(addr)};
  return {AddrKind::Global, static_cast<std::uint32_t>(addr)};
}

/// Block-level constant propagation: the state on entry to and exit from
/// every block at the fixpoint. With `core_id` set, COREID is a constant.
/// This and analyze_self_loop need every instruction's registers_in_range.
struct ConstProp {
  std::vector<State> in, out;
};

[[nodiscard]] ConstProp propagate(const isa::Program& prog, const Cfg& cfg,
                                  std::optional<std::int64_t> core_id = std::nullopt);

/// The bytes an access touches: one execution at `addr`, or -- with a
/// nonzero stride -- a cursor walk `addr + it * stride` for it < trips.
struct Access {
  std::int64_t addr = 0;
  std::int64_t size = 4;
  bool store = false;  // may write: STR/STRD, and TESTSET's lock word
  std::int64_t stride = 0;
  std::int64_t trips = 1;

  /// [lo(), hi()) covers every byte of every iteration.
  [[nodiscard]] std::int64_t lo() const {
    return std::min(addr, addr + (trips - 1) * stride);
  }
  [[nodiscard]] std::int64_t hi() const {
    return std::max(addr, addr + (trips - 1) * stride) + size;
  }
};

/// Effective address of one ldr/str/ldrd/strd/wait/testset under the
/// constant state before it; nullopt for other opcodes or an unknown base.
[[nodiscard]] std::optional<Access> access_at(const isa::Instruction& ins,
                                              const State& st);

/// A single-block counted loop `loop: ... sub rC, rC, #k ... bne loop`
/// whose counter rC is a positive constant on entry and has no other
/// in-loop definition. This is the only loop shape the paper's kernels use.
struct SelfLoop {
  bool recognised = false;
  std::size_t counter_instr = 0;  // the sub the bne tests
  unsigned counter = 0;
  std::int64_t start = 0, step = 0;  // rC on entry, k
  std::int64_t trips = 1;            // start / step when counted()
  std::size_t first = 0;             // the block's first instruction
  /// Per instruction of the block: the walk of a load/store whose base is
  /// a live cursor (every in-loop definition an increment, known on entry).
  std::vector<std::optional<Access>> walks;

  /// Terminates: the counter steps onto zero exactly.
  [[nodiscard]] bool counted() const { return recognised && start % step == 0; }
  [[nodiscard]] std::optional<Access> walk(std::size_t i) const {
    return walks.empty() ? std::nullopt : walks[i - first];
  }
};

[[nodiscard]] SelfLoop analyze_self_loop(const isa::Program& prog, const Cfg& cfg,
                                         std::size_t bi, const ConstProp& cp);

}  // namespace epi::lint::dataflow
