#include "lint/dataflow.hpp"

namespace epi::lint::dataflow {

using isa::Instruction;
using isa::Opcode;

bool registers_in_range(const Instruction& ins) {
  // Raw fields, checked per opcode (not via the use/def walkers, which also
  // yield the Z flag's pseudo-index).
  bool ok = true;
  const auto chk = [&](unsigned r) { ok &= r < kRegs; };
  switch (ins.op) {
    case Opcode::Fmadd:
    case Opcode::Fmul:
    case Opcode::Fadd:
    case Opcode::Fsub:
      chk(ins.rd); chk(ins.rn); chk(ins.rm);
      break;
    case Opcode::MovImm:
    case Opcode::CoreId:
      chk(ins.rd);
      break;
    case Opcode::MovReg:
    case Opcode::Lsl:
    case Opcode::Ldr:
    case Opcode::Ldrd:
    case Opcode::Str:
    case Opcode::Strd:
    case Opcode::Testset:
      chk(ins.rd); chk(ins.rn);
      break;
    case Opcode::Add:
    case Opcode::Sub:
      chk(ins.rd); chk(ins.rn);
      if (!ins.has_imm) chk(ins.rm);
      break;
    case Opcode::Wait:
      chk(ins.rn);
      break;
    case Opcode::B:
    case Opcode::Bne:
    case Opcode::Beq:
    case Opcode::Bar:
    case Opcode::Halt:
      break;
  }
  return ok;
}

ConstProp propagate(const isa::Program& prog, const Cfg& cfg,
                    std::optional<std::int64_t> core_id) {
  const std::size_t nb = cfg.blocks.size();
  ConstProp cp;
  cp.in.resize(nb);
  cp.out.resize(nb);
  if (nb == 0) return cp;
  std::vector<bool> visited(nb, false);
  visited[0] = true;  // entry: all unknown
  std::vector<std::size_t> work{0};
  while (!work.empty()) {
    const std::size_t bi = work.back();
    work.pop_back();
    const BasicBlock& b = cfg.blocks[bi];
    State s = cp.in[bi];
    for (std::size_t i = b.first; i < b.last; ++i) xfer_const(prog.code[i], s, core_id);
    cp.out[bi] = s;
    for (std::size_t succ : b.succ) {
      if (!visited[succ]) {
        visited[succ] = true;
        cp.in[succ] = s;
        work.push_back(succ);
      } else if (const State m = merge_state(cp.in[succ], s); m != cp.in[succ]) {
        cp.in[succ] = m;
        work.push_back(succ);
      }
    }
  }
  return cp;
}

namespace {

/// The increment `ins` applies to register r (a postmodify cursor, or an
/// add/sub #imm of r onto itself), or 0.
std::int64_t step_of(const Instruction& ins, unsigned r) {
  if ((isa::is_load(ins.op) || isa::is_store(ins.op)) && ins.postmodify &&
      ins.rn == r) {
    return ins.imm;
  }
  if ((ins.op == Opcode::Add || ins.op == Opcode::Sub) && ins.has_imm &&
      ins.rd == r && ins.rn == r) {
    return ins.op == Opcode::Add ? ins.imm : -std::int64_t{ins.imm};
  }
  return 0;
}

}  // namespace

std::optional<Access> access_at(const Instruction& ins, const State& st) {
  const bool mem = isa::is_load(ins.op) || isa::is_store(ins.op);
  if ((!mem && ins.op != Opcode::Wait && ins.op != Opcode::Testset) ||
      !st[ins.rn].known) {
    return std::nullopt;
  }
  const std::int64_t base = st[ins.rn].v;
  if (mem) {
    return Access{ins.postmodify ? base : base + ins.imm, access_size(ins),
                  isa::is_store(ins.op)};
  }
  // WAIT reads the flag at its base; TESTSET may write the lock word.
  if (ins.op == Opcode::Wait) return Access{base, 4, false};
  return Access{base + ins.imm, 4, true};
}

SelfLoop analyze_self_loop(const isa::Program& prog, const Cfg& cfg,
                           std::size_t bi, const ConstProp& cp) {
  SelfLoop loop;
  const BasicBlock& b = cfg.blocks[bi];
  loop.first = b.first;
  const Instruction& tail = prog.code[b.last - 1];
  if (tail.op != Opcode::Bne || tail.imm < 0 ||
      static_cast<std::size_t>(tail.imm) >= prog.size() ||
      cfg.block_of[static_cast<std::size_t>(tail.imm)] != bi) {
    return loop;  // not a self-loop
  }

  // Loop-entry state: merge of every reachable non-back-edge predecessor.
  State pre;
  bool have_pre = false;
  for (std::size_t p : b.pred) {
    if (p == bi || !cfg.reachable[p]) continue;
    pre = have_pre ? merge_state(pre, cp.out[p]) : cp.out[p];
    have_pre = true;
  }
  if (!have_pre) return loop;

  // The counter: the *last* Z-setting instruction, which the bne tests.
  std::size_t cnt_i = b.last;
  for (std::size_t i = b.first; i < b.last; ++i) {
    const Opcode op = prog.code[i].op;
    if (op == Opcode::Add || op == Opcode::Sub) cnt_i = i;
  }
  if (cnt_i == b.last) return loop;
  const Instruction& cnt = prog.code[cnt_i];
  if (cnt.op != Opcode::Sub || !cnt.has_imm || cnt.rd != cnt.rn || cnt.imm <= 0) {
    return loop;
  }
  for (std::size_t i = b.first; i < b.last; ++i) {
    bool redefined = false;
    for_each_def(prog.code[i], [&](unsigned r) { redefined |= r == cnt.rd; });
    if (redefined && i != cnt_i) return loop;  // not a simple induction variable
  }
  if (!pre[cnt.rd].known || pre[cnt.rd].v <= 0) return loop;
  loop.recognised = true;
  loop.counter_instr = cnt_i;
  loop.counter = cnt.rd;
  loop.start = pre[cnt.rd].v;
  loop.step = cnt.imm;
  if (!loop.counted()) return loop;
  loop.trips = loop.start / loop.step;

  // Cursor registers: every in-loop definition is an increment by a
  // constant (postmodify or add/sub #imm on itself).
  std::array<std::int64_t, kRegs> delta{};  // net change per iteration
  std::array<bool, kRegs> cursor;
  cursor.fill(true);
  cursor[loop.counter] = false;
  for (std::size_t i = b.first; i < b.last; ++i) {
    const Instruction& ins = prog.code[i];
    for_each_def(ins, [&](unsigned r) {
      if (r >= kRegs) return;
      if (const std::int64_t d = step_of(ins, r); d != 0) {
        delta[r] += d;
      } else {
        cursor[r] = false;
      }
    });
  }

  // Walk the block once more, following each cursor's offset from entry.
  loop.walks.resize(b.size());
  std::array<std::int64_t, kRegs> cum{};
  for (std::size_t i = b.first; i < b.last; ++i) {
    const Instruction& ins = prog.code[i];
    const unsigned rn = ins.rn;
    if ((isa::is_load(ins.op) || isa::is_store(ins.op)) && cursor[rn] && delta[rn] != 0 &&
        pre[rn].known) {
      loop.walks[i - b.first] =
          Access{pre[rn].v + cum[rn] + (ins.postmodify ? 0 : ins.imm),
                 access_size(ins), isa::is_store(ins.op), delta[rn], loop.trips};
    }
    for (unsigned r = 0; r < kRegs; ++r) cum[r] += step_of(ins, r);
  }
  return loop;
}

}  // namespace epi::lint::dataflow
