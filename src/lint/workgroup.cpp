#include "lint/workgroup.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "isa/assembler.hpp"
#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"

namespace epi::lint {

namespace {

using isa::Instruction;
using isa::Opcode;

using dataflow::AV;
using dataflow::State;
using dataflow::classify_addr;
using dataflow::hex;
using dataflow::xfer_const;

/// One memory/synchronisation action of one core, with its target resolved
/// to a flat global address range.
struct Event {
  enum class Kind { Store, Load, Wait, Testset, Barrier };
  Kind kind = Kind::Store;
  std::size_t core = 0;   // linear group index
  std::size_t instr = 0;  // instruction index in that core's program
  std::uint32_t lo = 0, hi = 0;  // global address range [lo, hi)
  bool value_known = false;
  std::uint32_t value = 0;   // stored value (Store) / expected value (Wait)
  std::size_t barrier_seq = 0;  // per-core barrier instance index
  bool preload_satisfied = false;  // Wait covered by a host-preloaded range
  std::vector<std::uint32_t> lockset;  // mutex words held at this event
};

constexpr bool overlaps(const Event& a, const Event& b) {
  return a.lo < b.hi && b.lo < a.hi;
}

class Verifier {
public:
  explicit Verifier(const WorkgroupSpec& spec) : spec_(spec) {
    const std::size_t n = std::size_t{spec.rows} * spec.cols;
    if (spec.rows == 0 || spec.cols == 0) {
      throw std::invalid_argument("workgroup shape must be at least 1x1");
    }
    if (spec.origin.row + spec.rows > spec.map.dims.rows ||
        spec.origin.col + spec.cols > spec.map.dims.cols) {
      throw std::invalid_argument("workgroup does not fit on the mesh at its origin");
    }
    if (spec.cores.size() != 1 && spec.cores.size() != n) {
      throw std::invalid_argument(
          "workgroup needs 1 (replicated) or rows*cols programs, got " +
          std::to_string(spec.cores.size()));
    }
  }

  std::vector<WgFinding> run() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;
    for (std::size_t c = 0; c < n; ++c) extract_core(c);
    check_barriers();
    build_hb();
    check_races();
    check_deadlocks();
    for (std::size_t c = 0; c < n; ++c) check_dma(c);
    run_per_core();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const WgFinding& a, const WgFinding& b) {
                       if (a.core != b.core) return a.core < b.core;
                       if (a.finding.instr != b.finding.instr) {
                         return a.finding.instr < b.finding.instr;
                       }
                       return a.finding.pass < b.finding.pass;
                     });
    return std::move(findings_);
  }

private:
  const isa::Program& prog_of(std::size_t core) const {
    return spec_.cores.size() == 1 ? spec_.cores[0].prog : spec_.cores[core].prog;
  }
  const std::string& name_of(std::size_t core) const {
    return spec_.cores.size() == 1 ? spec_.cores[0].name : spec_.cores[core].name;
  }
  arch::CoreCoord coord_of(std::size_t core) const {
    return {spec_.origin.row + static_cast<unsigned>(core) / spec_.cols,
            spec_.origin.col + static_cast<unsigned>(core) % spec_.cols};
  }
  bool in_group(arch::CoreCoord c) const {
    return c.row >= spec_.origin.row && c.row < spec_.origin.row + spec_.rows &&
           c.col >= spec_.origin.col && c.col < spec_.origin.col + spec_.cols;
  }

  void report(std::size_t core, const char* pass, Severity sev, std::size_t instr,
              std::string msg, unsigned line_override = 0) {
    WgFinding f;
    f.core = core;
    f.row = static_cast<unsigned>(core) / spec_.cols;
    f.col = static_cast<unsigned>(core) % spec_.cols;
    f.where = name_of(core);
    f.finding.pass = pass;
    f.finding.severity = sev;
    f.finding.instr = instr;
    f.finding.line =
        line_override != 0
            ? line_override
            : (instr == Finding::kNoInstr ? 0 : prog_of(core).line_of(instr));
    f.finding.message = std::move(msg);
    findings_.push_back(std::move(f));
  }

  // ---- per-core event extraction ----------------------------------------

  /// Resolve one constant-address access of `core` to a global range,
  /// reporting bad targets. Returns nullopt when the access is not a valid
  /// event (bad target, or a local fault the per-core passes own).
  std::optional<std::pair<std::uint32_t, std::uint32_t>> resolve(
      std::size_t core, std::size_t instr, std::int64_t addr, std::int64_t size,
      bool is_store) {
    const auto cls = classify_addr(addr);
    const auto& map = spec_.map;
    switch (cls.kind) {
      case dataflow::AddrKind::Negative:
        return std::nullopt;  // per-core mem-extent reports this
      case dataflow::AddrKind::Local: {
        const std::int64_t off = addr;
        if (off + size > arch::AddressMap::kLocalMemBytes) {
          return std::nullopt;  // per-core mem-extent reports this
        }
        const std::uint32_t g =
            map.global(coord_of(core), static_cast<arch::Addr>(off));
        return std::make_pair(g, static_cast<std::uint32_t>(g + size));
      }
      case dataflow::AddrKind::Global:
        break;
    }
    const std::uint32_t g = cls.global;
    if (map.is_external(g)) {
      if (static_cast<std::int64_t>(map.external_offset(g)) + size >
          map.external_bytes) {
        report(core, "wg-remote-extent", Severity::Error, instr,
               std::string(is_store ? "store" : "load") + " at " + hex(g) +
                   " (+" + std::to_string(size) +
                   ") runs past the external DRAM window");
        return std::nullopt;
      }
      return std::make_pair(g, static_cast<std::uint32_t>(g + size));
    }
    const auto target = map.core_of(g);
    if (!target) {
      report(core, "wg-unmapped-core", Severity::Error, instr,
             std::string(is_store ? "store" : "load") + " at " + hex(g) +
                 " targets core id " + hex(g >> arch::AddressMap::kCoreWindowBits) +
                 ", which maps to no core on this mesh");
      return std::nullopt;
    }
    if (!in_group(*target)) {
      report(core, "wg-out-of-group", Severity::Error, instr,
             std::string(is_store ? "store" : "load") + " at " + hex(g) +
                 " targets core (" + std::to_string(target->row) + "," +
                 std::to_string(target->col) + "), outside this " +
                 std::to_string(spec_.rows) + "x" + std::to_string(spec_.cols) +
                 " workgroup");
      return std::nullopt;
    }
    const std::int64_t off = arch::AddressMap::local_offset(g);
    if (off + size > arch::AddressMap::kLocalMemBytes) {
      report(core, "wg-remote-extent", Severity::Error, instr,
             std::string(is_store ? "store" : "load") + " at " + hex(g) + " (+" +
                 std::to_string(size) + ") runs past core (" +
                 std::to_string(target->row) + "," + std::to_string(target->col) +
                 ")'s 32 KB scratchpad");
      return std::nullopt;
    }
    if (off / arch::AddressMap::kBankBytes !=
        (off + size - 1) / arch::AddressMap::kBankBytes) {
      report(core, "wg-remote-bank", Severity::Warning, instr,
             std::string(is_store ? "store" : "load") + " at " + hex(g) + " (+" +
                 std::to_string(size) + ") straddles an 8 KB bank boundary of core (" +
                 std::to_string(target->row) + "," + std::to_string(target->col) +
                 ")'s scratchpad");
    }
    return std::make_pair(g, static_cast<std::uint32_t>(g + size));
  }

  void emit(std::size_t core, Event::Kind kind, std::size_t instr,
            std::uint32_t lo, std::uint32_t hi, bool value_known,
            std::uint32_t value) {
    Event e;
    e.kind = kind;
    e.core = core;
    e.instr = instr;
    e.lo = lo;
    e.hi = hi;
    e.value_known = value_known;
    e.value = value;
    events_[core].push_back(std::move(e));
  }

  void extract_core(std::size_t core) {
    const isa::Program& prog = prog_of(core);
    // The per-core passes report a register outside the file (reg-range);
    // the per-register constant state cannot be run over such a program.
    if (!std::all_of(prog.code.begin(), prog.code.end(), dataflow::registers_in_range)) {
      return;
    }
    const Cfg cfg = Cfg::build(prog);
    const std::int64_t cid = spec_.map.core_id(coord_of(core));
    const dataflow::ConstProp cp = dataflow::propagate(prog, cfg, cid);

    // A `.dma` declaration is modelled as a blocking transfer anchored at
    // the first instruction at or below its source line: one Load event over
    // the source span and one Store event over the destination span, in
    // program order with the surrounding instructions. That makes DMA
    // payloads first-class in the happens-before/race analysis -- the
    // epi-shmem put_with_signal idiom (DMA the block, then raise the flag)
    // verifies clean, and a consumer reading the block without waiting on
    // the flag races with the DMA store like any other remote write.
    std::vector<std::size_t> dma_anchor(prog.dma.size(), prog.size());
    for (std::size_t di = 0; di < prog.dma.size(); ++di) {
      for (std::size_t i = 0; i < prog.size(); ++i) {
        if (prog.line_of(i) >= prog.dma[di].line) {
          dma_anchor[di] = i;
          break;
        }
      }
    }
    std::vector<bool> dma_emitted(prog.dma.size(), false);

    for (std::size_t bi = 0; bi < cfg.blocks.size(); ++bi) {
      if (!cfg.reachable[bi]) continue;
      const BasicBlock& b = cfg.blocks[bi];
      const dataflow::SelfLoop loop = dataflow::analyze_self_loop(prog, cfg, bi, cp);
      State st = cp.in[bi];
      for (std::size_t i = b.first; i < b.last; ++i) {
        for (std::size_t di = 0; di < prog.dma.size(); ++di) {
          if (!dma_emitted[di] && dma_anchor[di] == i) {
            dma_emitted[di] = true;
            emit_dma_transfer(core, prog.dma[di], i);
          }
        }
        const Instruction& ins = prog.code[i];
        if (ins.op == Opcode::Bar) {
          Event e;
          e.kind = Event::Kind::Barrier;
          e.core = core;
          e.instr = i;
          e.barrier_seq = barrier_count_[core]++;
          events_[core].push_back(std::move(e));
          barrier_weight_[core] += loop.counted() ? loop.trips : 1;
        } else if (const auto a = dataflow::access_at(ins, st)) {
          if (auto r = resolve(core, i, a->addr, a->size, a->store)) {
            AV val = ins.op == Opcode::Str ? st[ins.rd] : AV{};
            if (ins.op == Opcode::Wait) val = AV{true, ins.imm};  // the awaited value
            emit(core, event_kind(ins), i, r->first, r->second, val.known,
                 static_cast<std::uint32_t>(val.v));
          }
        } else if (const auto w = loop.walk(i)) {
          // Strided walk of a counted self-loop: one event covering the
          // whole span the cursor visits.
          if (auto r = resolve(core, i, w->lo(), w->hi() - w->lo(), w->store)) {
            emit(core, event_kind(ins), i, r->first, r->second, false, 0);
          }
        }
        xfer_const(ins, st, cid);
      }
    }
  }

  static Event::Kind event_kind(const Instruction& ins) {
    if (ins.op == Opcode::Wait) return Event::Kind::Wait;
    if (ins.op == Opcode::Testset) return Event::Kind::Testset;
    return isa::is_store(ins.op) ? Event::Kind::Store : Event::Kind::Load;
  }

  // ---- barrier participation --------------------------------------------

  void check_barriers() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;
    std::int64_t min_w = -1, max_w = -1;
    std::size_t min_c = 0, max_c = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::int64_t w = barrier_weight_[c];
      if (min_w < 0 || w < min_w) { min_w = w; min_c = c; }
      if (max_w < 0 || w > max_w) { max_w = w; max_c = c; }
    }
    if (n < 2 || min_w == max_w) return;
    // Attribute to the core with the most barriers, at its first barrier
    // past the minimum (the one nobody will ever join).
    std::size_t at = Finding::kNoInstr;
    for (const Event& e : events_[max_c]) {
      if (e.kind == Event::Kind::Barrier &&
          e.barrier_seq >= static_cast<std::size_t>(min_w)) {
        at = e.instr;
        break;
      }
    }
    if (at == Finding::kNoInstr) {
      for (const Event& e : events_[max_c]) {
        if (e.kind == Event::Kind::Barrier) at = e.instr;  // last one
      }
    }
    const auto cc = [&](std::size_t c) {
      return "core (" + std::to_string(static_cast<unsigned>(c) / spec_.cols) + "," +
             std::to_string(static_cast<unsigned>(c) % spec_.cols) + ")";
    };
    report(max_c, "wg-barrier-mismatch", Severity::Error, at,
           "barrier participation mismatch: " + cc(max_c) + " reaches " +
               std::to_string(max_w) + " barrier(s) but " + cc(min_c) +
               " reaches " + std::to_string(min_w) +
               " -- the group deadlocks at the unmatched rendezvous");
  }

  // ---- happens-before graph ---------------------------------------------

  // Node ids: flatten per-core events first, then one virtual node per
  // barrier instance actually paired (j < min participation count).
  std::size_t node_of(std::size_t core, std::size_t ev) const {
    return event_base_[core] + ev;
  }

  /// Drop stores/loads that cannot interact across cores: their range
  /// overlaps no other core's events and contains no sync word. Keeps the
  /// happens-before graph proportional to the group's *communication*, not
  /// to the kernels' local traffic (the big generated kernels have
  /// thousands of scratchpad accesses and zero remote ones).
  void prune_events() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;
    std::vector<std::uint32_t> bb_lo(n, UINT32_MAX), bb_hi(n, 0);
    for (std::size_t c = 0; c < n; ++c) {
      for (const Event& e : events_[c]) {
        if (e.kind == Event::Kind::Barrier) continue;
        bb_lo[c] = std::min(bb_lo[c], e.lo);
        bb_hi[c] = std::max(bb_hi[c], e.hi);
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      std::vector<Event> kept;
      for (const Event& e : events_[c]) {
        bool keep = e.kind != Event::Kind::Store && e.kind != Event::Kind::Load;
        if (!keep) keep = is_sync_range(e);  // self-release / flag traffic
        for (std::size_t d = 0; !keep && d < n; ++d) {
          if (d == c || e.lo >= bb_hi[d] || bb_lo[d] >= e.hi) continue;
          for (const Event& f : events_[d]) {
            if (f.kind != Event::Kind::Barrier && e.lo < f.hi && f.lo < e.hi) {
              keep = true;
              break;
            }
          }
        }
        if (keep) kept.push_back(e);
      }
      events_[c] = std::move(kept);
    }
  }

  void build_hb() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;

    // Sync words: every 4-byte word some WAIT or TESTSET targets. Stores
    // and loads touching them are synchronisation traffic, not payload.
    for (std::size_t c = 0; c < n; ++c) {
      for (const Event& e : events_[c]) {
        if (e.kind == Event::Kind::Wait || e.kind == Event::Kind::Testset) {
          sync_words_.insert(e.lo);
        }
        if (e.kind == Event::Kind::Testset) mutex_words_.insert(e.lo);
      }
    }
    prune_events();

    event_base_.assign(n, 0);
    std::size_t total = 0;
    for (std::size_t c = 0; c < n; ++c) {
      event_base_[c] = total;
      total += events_[c].size();
    }
    std::size_t min_bars = SIZE_MAX;
    for (std::size_t c = 0; c < n; ++c) {
      min_bars = std::min(min_bars, barrier_count_[c]);
    }
    if (min_bars == SIZE_MAX) min_bars = 0;
    paired_barriers_ = n >= 2 ? min_bars : 0;
    const std::size_t nodes = total + paired_barriers_;
    adj_.assign(nodes, {});

    for (std::size_t c = 0; c < n; ++c) {
      // Program order.
      for (std::size_t i = 0; i + 1 < events_[c].size(); ++i) {
        adj_[node_of(c, i)].push_back(node_of(c, i + 1));
      }
      // Locksets: a TESTSET acquires its word; a store of 0 to a mutex
      // word releases it.
      std::set<std::uint32_t> held;
      for (Event& e : events_[c]) {
        if (e.kind == Event::Kind::Store && e.value_known && e.value == 0 &&
            mutex_words_.count(e.lo)) {
          held.erase(e.lo);
        }
        e.lockset.assign(held.begin(), held.end());
        if (e.kind == Event::Kind::Testset) held.insert(e.lo);
      }
    }

    // Release edges: store(F, v) -> wait(F, v) for matching flag words;
    // host preloads satisfy waits directly.
    for (std::size_t wc = 0; wc < n; ++wc) {
      for (std::size_t wi = 0; wi < events_[wc].size(); ++wi) {
        Event& w = events_[wc][wi];
        if (w.kind != Event::Kind::Wait) continue;
        for (const auto& [plo, phi] : spec_.host_preloaded) {
          if (plo <= w.lo && w.hi <= phi) w.preload_satisfied = true;
        }
        for (std::size_t sc = 0; sc < n; ++sc) {
          for (std::size_t si = 0; si < events_[sc].size(); ++si) {
            const Event& s = events_[sc][si];
            if (s.kind != Event::Kind::Store || !overlaps(s, w)) continue;
            if (s.value_known && w.value_known && s.value != w.value) continue;
            adj_[node_of(sc, si)].push_back(node_of(wc, wi));
            release_of_[node_of(wc, wi)].push_back(node_of(sc, si));
          }
        }
      }
    }

    // Barrier instances: arrive -> virtual -> depart on every core.
    for (std::size_t j = 0; j < paired_barriers_; ++j) {
      const std::size_t vj = total + j;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = 0; i < events_[c].size(); ++i) {
          const Event& e = events_[c][i];
          if (e.kind != Event::Kind::Barrier || e.barrier_seq != j) continue;
          adj_[node_of(c, i)].push_back(vj);
          if (i + 1 < events_[c].size()) adj_[vj].push_back(node_of(c, i + 1));
        }
      }
    }

    // Transitive reachability, BFS from each node (event counts are small:
    // only constant-address sync/remote traffic becomes events).
    reach_.assign(nodes, std::vector<bool>(nodes, false));
    for (std::size_t s = 0; s < nodes; ++s) {
      std::vector<std::size_t> stack{s};
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        for (std::size_t v : adj_[u]) {
          if (!reach_[s][v]) {
            reach_[s][v] = true;
            stack.push_back(v);
          }
        }
      }
    }
  }

  bool hb(std::size_t a, std::size_t b) const { return reach_[a][b]; }

  // ---- races --------------------------------------------------------------

  static bool disjoint_locksets(const Event& a, const Event& b) {
    for (std::uint32_t m : a.lockset) {
      if (std::find(b.lockset.begin(), b.lockset.end(), m) != b.lockset.end()) {
        return false;
      }
    }
    return true;
  }

  bool is_sync_range(const Event& e) const {
    for (std::uint32_t w : sync_words_) {
      if (e.lo <= w && w < e.hi) return true;
    }
    return false;
  }

  void check_races() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;
    for (std::size_t lc = 0; lc < n; ++lc) {
      for (std::size_t li = 0; li < events_[lc].size(); ++li) {
        const Event& l = events_[lc][li];
        if (l.kind != Event::Kind::Load || is_sync_range(l)) continue;
        for (std::size_t sc = 0; sc < n; ++sc) {
          if (sc == lc) continue;
          bool reported = false;
          for (std::size_t si = 0; si < events_[sc].size(); ++si) {
            const Event& s = events_[sc][si];
            if (s.kind != Event::Kind::Store || !overlaps(s, l)) continue;
            if (is_sync_range(s)) continue;
            if (!disjoint_locksets(s, l)) continue;
            const std::size_t sn = node_of(sc, si), ln = node_of(lc, li);
            if (hb(sn, ln) || hb(ln, sn)) continue;
            report(lc, "wg-race", Severity::Error, l.instr,
                   "read of [" + hex(l.lo) + ", " + hex(l.hi) +
                       ") races with the store at instr#" + std::to_string(s.instr) +
                       " of core (" + std::to_string(static_cast<unsigned>(sc) / spec_.cols) +
                       "," + std::to_string(static_cast<unsigned>(sc) % spec_.cols) +
                       "): no flag, barrier, or mutex orders the remote write "
                       "before this read (read-after-remote-write, paper "
                       "Listings 1-2)");
            reported = true;
            break;  // one finding per load/core pair
          }
          if (reported) break;  // one finding per load
        }
      }
    }
  }

  // ---- deadlocks -----------------------------------------------------------

  void check_deadlocks() {
    const std::size_t n = std::size_t{spec_.rows} * spec_.cols;
    std::size_t total = 0;
    for (std::size_t c = 0; c < n; ++c) total += events_[c].size();

    std::vector<bool> done(total + paired_barriers_, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = 0; i < events_[c].size(); ++i) {
          const std::size_t id = node_of(c, i);
          if (done[id]) continue;
          if (i > 0 && !done[node_of(c, i - 1)]) continue;
          const Event& e = events_[c][i];
          bool sat = true;
          switch (e.kind) {
            case Event::Kind::Store:
            case Event::Kind::Load:
            case Event::Kind::Testset:
              break;
            case Event::Kind::Wait: {
              sat = e.preload_satisfied;
              const auto it = release_of_.find(id);
              if (!sat && it != release_of_.end()) {
                for (std::size_t rn : it->second) {
                  if (done[rn]) { sat = true; break; }
                }
              }
              break;
            }
            case Event::Kind::Barrier: {
              if (e.barrier_seq >= paired_barriers_) break;  // mismatch owns this
              for (std::size_t oc = 0; oc < n; ++oc) {
                // Arrival of core oc at instance barrier_seq: its events up
                // to (and excluding) that barrier are all complete.
                std::size_t bi = SIZE_MAX;
                for (std::size_t oi = 0; oi < events_[oc].size(); ++oi) {
                  if (events_[oc][oi].kind == Event::Kind::Barrier &&
                      events_[oc][oi].barrier_seq == e.barrier_seq) {
                    bi = oi;
                    break;
                  }
                }
                if (bi == SIZE_MAX) continue;  // mismatch case
                if (bi > 0 && !done[node_of(oc, bi - 1)]) { sat = false; break; }
              }
              break;
            }
          }
          if (sat) {
            done[id] = true;
            changed = true;
          }
        }
      }
    }

    // The frontier: the first incomplete event on each core. Only waits
    // are reportable (barrier mismatches already are, and a barrier stuck
    // behind another core's wait would be a cascade).
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t i = 0; i < events_[c].size(); ++i) {
        if (done[node_of(c, i)]) continue;
        const Event& e = events_[c][i];
        if (e.kind == Event::Kind::Wait) {
          const auto it = release_of_.find(node_of(c, i));
          const bool has_candidates = it != release_of_.end() && !it->second.empty();
          if (!has_candidates) {
            report(c, "wg-flag-deadlock", Severity::Error, e.instr,
                   "wait for [" + hex(e.lo) + ", " + hex(e.hi) + ") == " +
                       std::to_string(e.value) +
                       " can never complete: no core ever stores that value "
                       "there and the host does not preload it");
          } else {
            report(c, "wg-flag-cycle", Severity::Error, e.instr,
                   "wait for [" + hex(e.lo) + ", " + hex(e.hi) + ") == " +
                       std::to_string(e.value) +
                       " can never complete: every store that could release it "
                       "is itself blocked behind an unsatisfied wait "
                       "(circular flag-wait chain)");
          }
        }
        break;  // only the frontier event per core
      }
    }
  }

  // ---- DMA descriptors -----------------------------------------------------

  /// Strided-walk extrema of one side of a descriptor: [lo, hi) in the
  /// side's own address space (local offsets or global addresses).
  static std::pair<std::int64_t, std::int64_t> dma_span(const isa::DmaDecl& d,
                                                        bool is_dst) {
    const std::uint32_t base = is_dst ? d.dst : d.src;
    const std::int64_t istride = is_dst ? d.dst_inner_stride : d.src_inner_stride;
    const std::int64_t ostride = is_dst ? d.dst_outer_stride : d.src_outer_stride;
    const std::int64_t row_step =
        static_cast<std::int64_t>(d.inner_count) * istride + ostride;
    std::int64_t lo = base, hi = base;
    for (const std::int64_t o : {std::int64_t{0}, std::int64_t{d.outer_count} - 1}) {
      for (const std::int64_t j : {std::int64_t{0}, std::int64_t{d.inner_count} - 1}) {
        const std::int64_t a = base + o * row_step + j * istride;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
    }
    return {lo, hi + d.elem};
  }

  /// Quiet resolution of one descriptor side to a global range for the
  /// happens-before graph: invalid descriptors yield no event (check_dma
  /// owns every wg-dma report; duplicating it here would double findings).
  void emit_dma_side(std::size_t core, const isa::DmaDecl& d, bool is_dst,
                     std::size_t instr) {
    const std::uint32_t base = is_dst ? d.dst : d.src;
    const auto [lo, hi] = dma_span(d, is_dst);
    const auto& map = spec_.map;
    std::uint32_t glo, ghi;
    if (arch::AddressMap::is_local_alias(base)) {
      if (lo < 0 || hi > arch::AddressMap::kLocalMemBytes) return;
      glo = map.global(coord_of(core), static_cast<arch::Addr>(lo));
      ghi = glo + static_cast<std::uint32_t>(hi - lo);
    } else if (map.is_external(base)) {
      if (lo < map.external_base ||
          hi > static_cast<std::int64_t>(map.external_base) + map.external_bytes) {
        return;
      }
      glo = static_cast<std::uint32_t>(lo);
      ghi = static_cast<std::uint32_t>(hi);
    } else {
      const auto target = map.core_of(base);
      if (!target || !in_group(*target)) return;
      const std::int64_t win =
          static_cast<std::int64_t>(base) &
          ~((std::int64_t{1} << arch::AddressMap::kCoreWindowBits) - 1);
      if (lo < win || hi - win > arch::AddressMap::kLocalMemBytes) return;
      glo = static_cast<std::uint32_t>(lo);
      ghi = static_cast<std::uint32_t>(hi);
    }
    emit(core, is_dst ? Event::Kind::Store : Event::Kind::Load, instr, glo, ghi,
         /*value_known=*/false, 0);
  }

  void emit_dma_transfer(std::size_t core, const isa::DmaDecl& d, std::size_t instr) {
    if (d.elem != 1 && d.elem != 2 && d.elem != 4 && d.elem != 8) return;
    if (d.inner_count == 0 || d.outer_count == 0) return;
    emit_dma_side(core, d, /*is_dst=*/false, instr);
    emit_dma_side(core, d, /*is_dst=*/true, instr);
  }

  void check_dma(std::size_t core) {
    if (spec_.cores.size() == 1 && core != 0) return;  // replicated: once
    const isa::Program& prog = prog_of(core);
    for (const isa::DmaDecl& d : prog.dma) {
      const auto bad = [&](const std::string& msg) {
        report(core, "wg-dma", Severity::Error, Finding::kNoInstr,
               ".dma descriptor: " + msg, d.line);
      };
      if (d.elem != 1 && d.elem != 2 && d.elem != 4 && d.elem != 8) {
        bad("element size " + std::to_string(d.elem) + " is not 1/2/4/8 bytes");
        continue;
      }
      if (d.inner_count == 0 || d.outer_count == 0) {
        bad("zero-length transfer (inner_count and outer_count must be >= 1)");
        continue;
      }
      check_dma_side(core, d, /*is_dst=*/false);
      check_dma_side(core, d, /*is_dst=*/true);
    }
  }

  void check_dma_side(std::size_t core, const isa::DmaDecl& d, bool is_dst) {
    const char* side = is_dst ? "destination" : "source";
    const std::uint32_t base = is_dst ? d.dst : d.src;
    const std::int64_t istride = is_dst ? d.dst_inner_stride : d.src_inner_stride;
    const std::int64_t ostride = is_dst ? d.dst_outer_stride : d.src_outer_stride;
    const auto bad = [&](const std::string& msg) {
      report(core, "wg-dma", Severity::Error, Finding::kNoInstr,
             ".dma " + std::string(side) + ": " + msg, d.line);
    };
    if (base % d.elem != 0) {
      bad("base " + hex(base) + " is not aligned to the " +
          std::to_string(d.elem) + "-byte element size");
      return;
    }
    // The walk is linear in (outer o, inner j):
    //   addr(o, j) = base + o * (inner_count * istride + ostride) + j * istride
    // so its extrema are at the four corners.
    const std::int64_t row_step =
        static_cast<std::int64_t>(d.inner_count) * istride + ostride;
    std::int64_t lo = base, hi = base;
    for (const std::int64_t o : {std::int64_t{0}, std::int64_t{d.outer_count} - 1}) {
      for (const std::int64_t j : {std::int64_t{0}, std::int64_t{d.inner_count} - 1}) {
        const std::int64_t a = base + o * row_step + j * istride;
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
    }
    hi += d.elem;

    const auto& map = spec_.map;
    if (arch::AddressMap::is_local_alias(base)) {
      if (lo < 0) {
        bad("strided walk reaches negative offset " + hex(lo));
      } else if (hi > arch::AddressMap::kLocalMemBytes) {
        bad("strided walk spans [" + hex(lo) + ", " + hex(hi) +
            "), past the 32 KB local scratchpad (stride/count overflow)");
      }
      return;
    }
    // Global base: the whole span must stay inside one window.
    if (map.is_external(base)) {
      if (lo < map.external_base ||
          hi > static_cast<std::int64_t>(map.external_base) + map.external_bytes) {
        bad("strided walk spans [" + hex(lo) + ", " + hex(hi) +
            "), outside the external DRAM window");
      }
      return;
    }
    const auto target = map.core_of(base);
    if (!target) {
      bad("base " + hex(base) + " targets core id " +
          hex(base >> arch::AddressMap::kCoreWindowBits) +
          ", which maps to no core on this mesh");
      return;
    }
    if (!in_group(*target)) {
      bad("base " + hex(base) + " targets core (" + std::to_string(target->row) +
          "," + std::to_string(target->col) + "), outside this " +
          std::to_string(spec_.rows) + "x" + std::to_string(spec_.cols) +
          " workgroup");
      return;
    }
    const std::int64_t win = static_cast<std::int64_t>(base) &
                             ~((std::int64_t{1} << arch::AddressMap::kCoreWindowBits) - 1);
    if (lo < win || hi - win > arch::AddressMap::kLocalMemBytes) {
      bad("strided walk spans [" + hex(lo) + ", " + hex(hi) + "), past core (" +
          std::to_string(target->row) + "," + std::to_string(target->col) +
          ")'s 32 KB scratchpad (stride/count overflow)");
    }
  }

  // ---- per-core passes -----------------------------------------------------

  void run_per_core() {
    const std::size_t n =
        spec_.cores.size() == 1 ? 1 : std::size_t{spec_.rows} * spec_.cols;
    for (std::size_t c = 0; c < n; ++c) {
      for (Finding& f : lint_program(prog_of(c), spec_.per_core)) {
        WgFinding wf;
        wf.core = c;
        wf.row = static_cast<unsigned>(c) / spec_.cols;
        wf.col = static_cast<unsigned>(c) % spec_.cols;
        wf.where = name_of(c);
        wf.finding = std::move(f);
        findings_.push_back(std::move(wf));
      }
    }
  }

  const WorkgroupSpec& spec_;
  std::map<std::size_t, std::vector<Event>> events_;
  std::map<std::size_t, std::size_t> barrier_count_;
  std::map<std::size_t, std::int64_t> barrier_weight_;
  std::vector<std::size_t> event_base_;
  std::size_t paired_barriers_ = 0;
  std::vector<std::vector<std::size_t>> adj_;
  std::map<std::size_t, std::vector<std::size_t>> release_of_;
  std::set<std::uint32_t> sync_words_;
  std::set<std::uint32_t> mutex_words_;
  std::vector<std::vector<bool>> reach_;
  std::vector<WgFinding> findings_;
};

}  // namespace

std::vector<WgFinding> verify_workgroup(const WorkgroupSpec& spec) {
  return Verifier(spec).run();
}

WorkgroupSpec assemble_workgroup(
    unsigned rows, unsigned cols,
    const std::vector<std::pair<std::string, std::string>>& named_sources,
    arch::CoreCoord origin) {
  const std::size_t n = std::size_t{rows} * cols;
  if (named_sources.size() != 1 && named_sources.size() != n) {
    throw std::invalid_argument(
        "workgroup needs 1 (replicated) or rows*cols sources, got " +
        std::to_string(named_sources.size()));
  }
  WorkgroupSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.origin = origin;
  for (const auto& [name, text] : named_sources) {
    spec.cores.push_back({isa::assemble(text), name});
  }
  return spec;
}

}  // namespace epi::lint
