#include "lint/lint.hpp"

#include <algorithm>
#include <string>

#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"

namespace epi::lint {

namespace {

using isa::Instruction;
using isa::Opcode;

using dataflow::Bits;
using dataflow::State;
using dataflow::classify_addr;
using dataflow::for_each_def;
using dataflow::for_each_use;
using dataflow::hex;
using dataflow::kRegs;
using dataflow::kZ;
using dataflow::xfer_const;

std::string reg(unsigned r) { return dataflow::reg_name(r); }

class Linter {
public:
  Linter(const isa::Program& prog, const LintOptions& opts)
      : prog_(prog), opts_(opts), cfg_(Cfg::build(prog)) {
    if (opts_.code_region) code_regions_.push_back(*opts_.code_region);
    if (opts_.layout) {
      for (const auto& r : opts_.layout->regions) {
        if (r.kind == RegionKind::Code) code_regions_.push_back(r);
      }
    }
  }

  std::vector<Finding> run() {
    if (prog_.size() == 0) {
      report("termination", Severity::Error, Finding::kNoInstr,
             "empty program: execution falls off the end immediately");
    } else {
      check_operands();
      check_reachability();
      if (registers_in_range_) {
        // The dataflow passes index per-register state; garbage register
        // numbers were already reported and would only poison them.
        check_def_use();
        check_dead_stores();
        check_memory_shape();
      }
    }
    if (opts_.layout) {
      auto lf = check_layout(*opts_.layout);
      findings_.insert(findings_.end(), lf.begin(), lf.end());
    }
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) { return a.instr < b.instr; });
    return std::move(findings_);
  }

private:
  void report(const char* pass, Severity sev, std::size_t instr, std::string msg) {
    Finding f;
    f.pass = pass;
    f.severity = sev;
    f.instr = instr;
    f.line = instr == Finding::kNoInstr ? 0 : prog_.line_of(instr);
    f.message = std::move(msg);
    findings_.push_back(std::move(f));
  }

  // ---- operand checks: register ranges and doubleword pairs --------------
  void check_operands() {
    for (std::size_t i = 0; i < prog_.size(); ++i) {
      const Instruction& ins = prog_.code[i];
      if (!dataflow::registers_in_range(ins)) {
        registers_in_range_ = false;
        report("reg-range", Severity::Error, i,
               "register operand outside the 64-entry register file");
      }
      if (ins.op == Opcode::Ldrd || ins.op == Opcode::Strd) {
        const char* mn = ins.op == Opcode::Ldrd ? "ldrd" : "strd";
        if (ins.rd % 2 != 0) {
          report("reg-pair", Severity::Error, i,
                 std::string(mn) + " needs an even-aligned register pair, got " +
                     reg(ins.rd) + ":" + reg(ins.rd + 1u));
        }
      }
    }
  }

  // ---- reachability and termination ---------------------------------------
  void check_reachability() {
    for (std::size_t bi = 0; bi < cfg_.blocks.size(); ++bi) {
      const BasicBlock& b = cfg_.blocks[bi];
      if (!cfg_.reachable[bi]) {
        report("unreachable", Severity::Warning, b.first,
               "unreachable code (no path from entry)");
        continue;
      }
      if (b.bad_target) {
        report("termination", Severity::Error, b.last - 1,
               "branch target outside the program");
      }
      if (b.falls_off_end) {
        report("termination", Severity::Error, b.last - 1,
               "control reaches the end of the program without halt");
      }
    }
    const auto can = cfg_.can_terminate();
    std::size_t first_stuck = Finding::kNoInstr;
    for (std::size_t bi = 0; bi < cfg_.blocks.size(); ++bi) {
      if (cfg_.reachable[bi] && !can[bi]) {
        first_stuck = std::min(first_stuck, cfg_.blocks[bi].first);
      }
    }
    if (first_stuck != Finding::kNoInstr) {
      report("termination", Severity::Error, first_stuck,
             "trivially infinite loop: no path from here reaches halt");
    }
  }

  // ---- use-before-def: forward maybe-undefined analysis -------------------
  void check_def_use() {
    const std::size_t nb = cfg_.blocks.size();
    std::vector<Bits> in(nb);
    in[0].set();  // everything (GPRs and Z) is undefined at entry
    const auto transfer = [&](std::size_t bi) {
      Bits s = in[bi];
      const BasicBlock& b = cfg_.blocks[bi];
      for (std::size_t i = b.first; i < b.last; ++i) {
        for_each_def(prog_.code[i], [&](unsigned r) { s.reset(r); });
      }
      return s;
    };
    std::vector<std::size_t> work{0};
    while (!work.empty()) {
      const std::size_t bi = work.back();
      work.pop_back();
      const Bits out = transfer(bi);
      for (std::size_t s : cfg_.blocks[bi].succ) {
        const Bits ni = in[s] | out;
        if (ni != in[s]) {
          in[s] = ni;
          work.push_back(s);
        }
      }
    }
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (!cfg_.reachable[bi]) continue;
      Bits s = in[bi];
      const BasicBlock& b = cfg_.blocks[bi];
      for (std::size_t i = b.first; i < b.last; ++i) {
        for_each_use(prog_.code[i], [&](unsigned r) {
          if (r < kRegs + 1 && s.test(r)) {
            if (r == kZ) {
              report("flag-undef", Severity::Warning, i,
                     "conditional branch before any add/sub set the Z flag");
            } else {
              report("use-before-def", Severity::Error, i,
                     "use of " + reg(r) + " before any definition reaches it");
            }
            s.reset(r);  // one finding per register per program point chain
          }
        });
        for_each_def(prog_.code[i], [&](unsigned r) { s.reset(r); });
      }
    }
  }

  // ---- dead stores to registers: backward may-liveness --------------------
  static bool reportable_dead_def(Opcode op) {
    // Loads are exempt: dead trailing loads are the software-pipelining
    // prefetch idiom of the paper's kernels. Add/sub are exempt: they also
    // produce the Z flag.
    switch (op) {
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::Fmadd:
      case Opcode::Fmul:
      case Opcode::Fadd:
      case Opcode::Fsub:
        return true;
      default:
        return false;
    }
  }

  void check_dead_stores() {
    const std::size_t nb = cfg_.blocks.size();
    std::vector<Bits> live_in(nb), live_out(nb);
    const auto transfer = [&](std::size_t bi) {
      Bits s = live_out[bi];
      const BasicBlock& b = cfg_.blocks[bi];
      for (std::size_t i = b.last; i-- > b.first;) {
        for_each_def(prog_.code[i], [&](unsigned r) { s.reset(r); });
        for_each_use(prog_.code[i], [&](unsigned r) { s.set(r); });
      }
      return s;
    };
    std::vector<std::size_t> work;
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (cfg_.reachable[bi]) work.push_back(bi);
    }
    while (!work.empty()) {
      const std::size_t bi = work.back();
      work.pop_back();
      const Bits ni = transfer(bi);
      if (ni != live_in[bi]) {
        live_in[bi] = ni;
        for (std::size_t p : cfg_.blocks[bi].pred) {
          if (!cfg_.reachable[p]) continue;
          const Bits no = live_out[p] | ni;
          if (no != live_out[p]) {
            live_out[p] = no;
            work.push_back(p);
          }
        }
      }
    }
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (!cfg_.reachable[bi]) continue;
      Bits s = live_out[bi];
      const BasicBlock& b = cfg_.blocks[bi];
      for (std::size_t i = b.last; i-- > b.first;) {
        const Instruction& ins = prog_.code[i];
        if (reportable_dead_def(ins.op) && ins.rd < kRegs && !s.test(ins.rd)) {
          report("dead-store", Severity::Warning, i,
                 "dead store to " + reg(ins.rd) + ": the value is never used");
        }
        for_each_def(ins, [&](unsigned r) { s.reset(r); });
        for_each_use(ins, [&](unsigned r) { s.set(r); });
      }
    }
  }

  // ---- memory shape: the ranges of the shared access model ----------------
  void check_memory_shape() {
    const dataflow::ConstProp cp = dataflow::propagate(prog_, cfg_);
    for (std::size_t bi = 0; bi < cfg_.blocks.size(); ++bi) {
      if (!cfg_.reachable[bi]) continue;
      const dataflow::SelfLoop loop = dataflow::analyze_self_loop(prog_, cfg_, bi, cp);
      State st = cp.in[bi];
      const BasicBlock& b = cfg_.blocks[bi];
      for (std::size_t i = b.first; i < b.last; ++i) {
        if (const auto a = dataflow::access_at(prog_.code[i], st)) {
          check_access(i, a->addr, a->size, a->store);
        } else if (const auto w = loop.walk(i)) {
          check_walk(i, *w);
        }
        xfer_const(prog_.code[i], st);
      }
      if (loop.recognised && !loop.counted()) {
        report("termination", Severity::Error, loop.counter_instr,
               "loop counter " + reg(loop.counter) + " starts at " +
                   std::to_string(loop.start) + " and steps by " +
                   std::to_string(loop.step) + ": it never reaches zero (infinite loop)");
      }
    }
  }

  void check_access(std::size_t i, std::int64_t addr, std::int64_t size, bool store) {
    const std::int64_t extent = opts_.extent;
    const auto cls = classify_addr(addr);
    if (cls.kind == dataflow::AddrKind::Negative) {
      report("mem-extent", Severity::Error, i, "access at negative address " + hex(addr));
      return;
    }
    if (cls.kind == dataflow::AddrKind::Global) {
      // A flat global (coreid<<20) address: outside this core's local view.
      // The single-core passes cannot judge it; the workgroup verifier
      // (lint/workgroup.hpp) resolves it against the group's address map.
      return;
    }
    if (addr + size > extent) {
      report("mem-extent", Severity::Error, i,
             "access at " + hex(addr) + " (+" + std::to_string(size) +
                 ") is outside the declared scratchpad extent " + hex(extent));
      return;
    }
    const auto bank = [](std::int64_t a) { return a / arch::AddressMap::kBankBytes; };
    if (bank(addr) != bank(addr + size - 1)) {
      report("bank-straddle", Severity::Warning, i,
             "access at " + hex(addr) + " (+" + std::to_string(size) +
                 ") straddles an 8 KB bank boundary (keep code/data/DMA banks separate)");
    }
    if (store) check_code_write(i, addr, addr + size, "store at " + hex(addr));
  }

  void check_code_write(std::size_t i, std::int64_t lo, std::int64_t hi,
                        const std::string& what) {
    for (const Region& r : code_regions_) {
      if (lo < static_cast<std::int64_t>(r.end()) &&
          static_cast<std::int64_t>(r.offset) < hi) {
        report("code-write", Severity::Error, i,
               what + " lands in the program's own code region '" + r.name + "' [" +
                   hex(r.offset) + ", " + hex(r.end()) + ")");
        return;
      }
    }
  }

  /// Bound a postmodify cursor's walk over its counted loop's trips.
  void check_walk(std::size_t i, const dataflow::Access& w) {
    if (classify_addr(w.addr).kind == dataflow::AddrKind::Global) {
      // Remote strided walk: out of scope for the single-core extent
      // check; the workgroup verifier bounds it against the target core's
      // scratchpad instead.
      return;
    }
    const std::int64_t lo = w.lo();
    const std::int64_t hi = w.hi();
    if (lo < 0) {
      report("mem-extent", Severity::Error, i,
             "postmodify stride walks to negative address " + hex(lo));
    } else if (hi > static_cast<std::int64_t>(opts_.extent)) {
      report("mem-extent", Severity::Error, i,
             "postmodify stride walks [" + hex(lo) + ", " + hex(hi) +
                 ") outside the declared scratchpad extent " + hex(opts_.extent));
    } else if (w.store && !code_regions_.empty()) {
      // Exact per-iteration overlap test (trips are small in practice).
      const std::int64_t cap = std::min<std::int64_t>(w.trips, 1 << 16);
      for (std::int64_t it = 0; it < cap; ++it) {
        const std::int64_t a = w.addr + it * w.stride;
        for (const Region& r : code_regions_) {
          if (a < static_cast<std::int64_t>(r.end()) &&
              static_cast<std::int64_t>(r.offset) < a + w.size) {
            check_code_write(i, a, a + w.size,
                             "strided store (iteration " + std::to_string(it) +
                                 ") at " + hex(a));
            return;
          }
        }
      }
    }
  }

  const isa::Program& prog_;
  LintOptions opts_;
  Cfg cfg_;
  std::vector<Region> code_regions_;
  std::vector<Finding> findings_;
  bool registers_in_range_ = true;
};

}  // namespace

std::vector<Finding> lint_program(const isa::Program& prog, const LintOptions& opts) {
  return Linter(prog, opts).run();
}

}  // namespace epi::lint
