#include "fault/injector.hpp"

#include <algorithm>

#include "trace/tracer.hpp"
#include "util/fmt.hpp"

namespace epi::fault {

std::string to_line(const FaultReport& r) {
  std::string line = util::format(
      "@%llu fault kind=%s", static_cast<unsigned long long>(r.detected),
      r.kind.c_str());
  if (r.job != ~std::uint32_t{0}) line += util::format(" job=%u", r.job);
  line += util::format(
      " latency=%llu",
      static_cast<unsigned long long>(r.detected >= r.since ? r.detected - r.since : 0));
  if (!r.detail.empty()) line += " " + r.detail;
  return line;
}

FaultInjector::FaultInjector(FaultPlan plan, sim::Engine& engine,
                             mem::MemorySystem& mem, arch::MeshDims dims,
                             const Instruments& inst)
    : plan_(std::move(plan)),
      engine_(&engine),
      mem_(&mem),
      dims_(dims),
      inst_(&inst),
      rng_(plan_.seed ^ 0x6661756C74ull) {  // decorrelate from workload draws
  c_kill_ = counters_.define("fault.inject.kill", trace::Counters::Kind::Monotonic);
  c_stall_ = counters_.define("fault.inject.stall", trace::Counters::Kind::Monotonic);
  c_reroute_ = counters_.define("fault.reroute", trace::Counters::Kind::Monotonic);
  c_elink_outage_ =
      counters_.define("fault.inject.elink_outage", trace::Counters::Kind::Monotonic);
  c_elink_flip_ =
      counters_.define("fault.inject.elink_flip", trace::Counters::Kind::Monotonic);
  c_mem_flip_ =
      counters_.define("fault.inject.mem_flip", trace::Counters::Kind::Monotonic);
  c_retry_ = counters_.define("fault.retry.transfer", trace::Counters::Kind::Monotonic);

  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::KillCore: {
        if (!dims_.contains(e.core)) {
          throw FaultError("fault plan kills core " + arch::to_string(e.core) +
                           " outside the mesh");
        }
        if (cores_.empty()) cores_.resize(dims_.core_count());
        CoreFault& cf = cores_[dims_.index_of(e.core)];
        cf.kill_at = std::min(cf.kill_at, e.at);
        cf.any = true;
        break;
      }
      case FaultKind::StallCore: {
        if (!dims_.contains(e.core)) {
          throw FaultError("fault plan stalls core " + arch::to_string(e.core) +
                           " outside the mesh");
        }
        if (cores_.empty()) cores_.resize(dims_.core_count());
        CoreFault& cf = cores_[dims_.index_of(e.core)];
        cf.stalls.push_back(StallWindow{e.at, e.at + e.duration, false});
        cf.any = true;
        break;
      }
      case FaultKind::LinkFail: {
        arch::CoreCoord nb;
        if (!dims_.contains(e.core) || !dims_.neighbour(e.core, e.dir, nb)) {
          throw FaultError("fault plan fails mesh link " + arch::to_string(e.core) +
                           "." + arch::to_string(e.dir) + " which does not exist");
        }
        if (links_.empty()) {
          links_.resize(static_cast<std::size_t>(dims_.core_count()) * 4);
        }
        const std::size_t li =
            static_cast<std::size_t>(dims_.index_of(e.core)) * 4 +
            static_cast<unsigned>(e.dir);
        links_[li].push_back(
            Window{e.at, e.duration == 0 ? kNever : e.at + e.duration, false});
        break;
      }
      case FaultKind::ElinkFail:
        elink_windows_[e.elink & 1].push_back(
            Window{e.at, e.duration == 0 ? kNever : e.at + e.duration, false});
        break;
      case FaultKind::ElinkFlip:
        elink_flips_[e.elink & 1].push_back(FlipBudget{
            e.at, e.duration == 0 ? kNever : e.at + e.duration, e.count});
        elink_flip_budget_[e.elink & 1] += e.count;
        break;
      case FaultKind::MemFlip:
        mem_flips_.push_back(MemFlipBudget{e, e.count});
        mem_flip_budget_ += e.count;
        break;
      // Chip-scoped kinds are fault::ClusterInjector's (fault/cluster.hpp);
      // a per-chip injector ignores them on purpose.
      case FaultKind::ChipCrash:
      case FaultKind::ChipStall:
      case FaultKind::XMeshFail:
      case FaultKind::NoticeDrop:
      case FaultKind::NoticeFlip:
        break;
    }
  }
  for (CoreFault& cf : cores_) {
    std::sort(cf.stalls.begin(), cf.stalls.end(),
              [](const StallWindow& a, const StallWindow& b) { return a.from < b.from; });
  }
}

void FaultInjector::note(const char* kind, trace::Counters::Id counter,
                         const std::string& detail) {
  const sim::Cycles now = engine_->now();
  counters_.add(counter, 1.0);
  injections_.push_back(util::format("@%llu inject %s %s",
                                     static_cast<unsigned long long>(now), kind,
                                     detail.c_str()));
  if (trace::Tracer* t = inst_->tracer) t->instant(t->fault_track(), kind, now);
}

bool FaultInjector::intercept_core_op(arch::CoreCoord c, sim::Cycles d,
                                      std::coroutine_handle<> h) {
  if (!core_has_faults(c)) return false;
  CoreFault& cf = cores_[dims_.index_of(c)];
  const sim::Cycles now = engine_->now();

  // Killed: the core never retires another operation. The resumption is
  // parked: never resumed and never destroyed. Nothing owns the frame (it
  // leaks until the engine owns parked frames); the scheduler's watchdog is
  // what turns the silence into a FaultReport.
  if (cf.kill_at != kNever && (now >= cf.kill_at || now + d > cf.kill_at)) {
    if (!cf.kill_noted) {
      cf.kill_noted = true;
      note("kill", c_kill_, "core=" + arch::to_string(c));
    }
    return true;
  }

  // Stalled: any operation completing inside a freeze window is held until
  // the window ends (the windows are sorted, so chained/overlapping stalls
  // fold left to right).
  sim::Cycles resume = now + d;
  for (StallWindow& w : cf.stalls) {
    if (resume >= w.from && resume < w.until) {
      if (!w.noted) {
        w.noted = true;
        note("stall", c_stall_,
             util::format("core=%s until=%llu", arch::to_string(c).c_str(),
                          static_cast<unsigned long long>(w.until)));
      }
      resume = w.until;
    }
  }
  if (resume == now + d) return false;
  engine_->schedule_at(resume, h);
  return true;
}

bool FaultInjector::park_if_dead(arch::CoreCoord c) {
  if (!core_has_faults(c)) return false;
  CoreFault& cf = cores_[dims_.index_of(c)];
  if (cf.kill_at == kNever || engine_->now() < cf.kill_at) return false;
  if (!cf.kill_noted) {
    cf.kill_noted = true;
    note("kill", c_kill_, "core=" + arch::to_string(c));
  }
  return true;
}

sim::Cycles FaultInjector::unresponsive_since(arch::CoreCoord c,
                                              sim::Cycles now) const noexcept {
  if (!core_has_faults(c)) return kNever;
  const CoreFault& cf = cores_[dims_.index_of(c)];
  if (cf.kill_at != kNever && now >= cf.kill_at) return cf.kill_at;
  for (const StallWindow& w : cf.stalls) {
    if (now >= w.from && now < w.until) return w.from;
  }
  return kNever;
}

sim::Cycles FaultInjector::link_clear_from(std::size_t li, sim::Cycles t,
                                           sim::Cycles occ) const noexcept {
  const std::vector<Window>& ws = links_[li];
  sim::Cycles s = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Window& w : ws) {
      if (s + occ <= w.from) continue;  // burst ends before the outage
      if (w.until == kNever) return kNever;
      if (s < w.until) {
        s = w.until;
        moved = true;
      }
    }
  }
  return s;
}

void FaultInjector::note_reroute(arch::CoreCoord src, arch::CoreCoord dst) {
  note("reroute", c_reroute_,
       "src=" + arch::to_string(src) + " dst=" + arch::to_string(dst) + " order=yx");
}

sim::Cycles FaultInjector::elink_available(unsigned kind, sim::Cycles now) {
  sim::Cycles s = now;
  bool moved = true;
  while (moved) {
    moved = false;
    for (Window& w : elink_windows_[kind & 1]) {
      if (s < w.from) continue;
      if (w.until == kNever || s < w.until) {
        if (!w.noted) {
          w.noted = true;
          note("elink-outage", c_elink_outage_,
               util::format("kind=%s until=%s", kind == 0 ? "write" : "read",
                            w.until == kNever
                                ? "never"
                                : util::format("%llu", static_cast<unsigned long long>(
                                                           w.until))
                                      .c_str()));
        }
        if (w.until == kNever) return kNever;
        s = w.until;
        moved = true;
      }
    }
  }
  return s;
}

void FaultInjector::flip_bit(arch::Addr a, std::size_t n, arch::CoreCoord issuer) {
  // Flip directly in the resolved storage: no hooks, no watch wakeups. A
  // hardware bit flip is invisible until somebody reads the word.
  auto span = mem_->resolve(a, n, issuer);
  const std::size_t byte = static_cast<std::size_t>(rng_.next_below(n));
  const unsigned bit = static_cast<unsigned>(rng_.next_below(8));
  span[byte] ^= static_cast<std::byte>(1u << bit);
}

bool FaultInjector::corrupt_elink(unsigned kind, arch::Addr dst, std::uint32_t bytes,
                                  arch::CoreCoord issuer) {
  if (bytes == 0 || elink_flip_budget_[kind & 1] == 0) return false;
  const sim::Cycles now = engine_->now();
  bool corrupted = false;
  for (FlipBudget& f : elink_flips_[kind & 1]) {
    if (f.remaining == 0 || now < f.from || (f.until != kNever && now >= f.until)) {
      continue;
    }
    --f.remaining;
    --elink_flip_budget_[kind & 1];
    flip_bit(dst, bytes, issuer);
    note("elink-flip", c_elink_flip_,
         util::format("kind=%s core=%s bytes=%u", kind == 0 ? "write" : "read",
                      arch::to_string(issuer).c_str(), bytes));
    corrupted = true;
    break;  // one flip per transfer at most
  }
  return corrupted;
}

void FaultInjector::note_transfer_retry(arch::CoreCoord issuer) {
  note("transfer-retry", c_retry_, "core=" + arch::to_string(issuer));
}

void FaultInjector::on_write(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                             sim::Cycles now) {
  if (mem_flip_budget_ == 0 || n == 0) return;
  const bool external = mem_->map().is_external(a);
  for (MemFlipBudget& f : mem_flips_) {
    if (f.remaining == 0 || now < f.ev.at) continue;
    if (f.ev.duration != 0 && now >= f.ev.at + f.ev.duration) continue;
    if (f.ev.scratch) {
      if (external) continue;
      auto c = mem_->map().core_of(a);
      if (!c) continue;
      // Spare the runtime-reserved control words: flipping a barrier slot
      // models a software bug, not a memory fault in kernel data.
      if (arch::AddressMap::local_offset(a) < 0x0200) continue;
      if (!f.ev.core_any && !(*c == f.ev.core)) continue;
    } else if (!external) {
      continue;
    }
    --f.remaining;
    --mem_flip_budget_;
    flip_bit(a, n, issuer);
    note("mem-flip", c_mem_flip_,
         util::format("region=%s addr=0x%08X bytes=%zu", f.ev.scratch ? "scratch" : "dram",
                      a, n));
    break;  // one flip per write at most
  }
}

}  // namespace epi::fault
