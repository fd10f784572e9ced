#pragma once
// The machine's functional memory: every eCore scratchpad plus the 32 MB
// shared DRAM window, resolved through the flat global address map.
//
// Every scratchpad and the DRAM window live in one anonymous mapping of the
// machine's own, outside the malloc heap: a page is committed (and costs
// resident memory) only when it is first touched, and every byte reads as
// zero until written. A machine pays for the memory its workload uses, not
// for all 32 MB of DRAM, whatever the C library does with the rest of the
// heap. LocalMemory is a view into that mapping.
//
// All *functional* data movement in the simulator lands here. Writes notify
// registered watches, which is how flag-spin synchronisation (the idiom in
// the paper's Listings 1 and 2) is modelled without polling storms.

#include <sys/mman.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/address_map.hpp"
#include "arch/coords.hpp"
#include "mem/hook.hpp"
#include "mem/local_memory.hpp"
#include "sim/engine.hpp"

namespace epi::mem {

/// One coalesced run of a DMA chunk: `elems` elements contiguous on both
/// sides (MemorySystem::copy_runs).
struct CopyRun {
  arch::Addr src;
  arch::Addr dst;
  std::uint32_t elems;
};

class MemorySystem {
public:
  MemorySystem(arch::MeshDims dims, sim::Engine& engine)
      : map_(arch::AddressMap::make(dims)),
        engine_(&engine),
        arena_(dims.core_count() * LocalMemory::kBytes + map_.external_bytes) {
    locals_.reserve(dims.core_count());
    for (std::size_t i = 0; i < dims.core_count(); ++i) {
      locals_.emplace_back(arena_.data() + i * LocalMemory::kBytes);
    }
    external_ = arena_.data() + dims.core_count() * LocalMemory::kBytes;
  }

  [[nodiscard]] const arch::AddressMap& map() const noexcept { return map_; }
  [[nodiscard]] sim::Engine& engine() const noexcept { return *engine_; }

  [[nodiscard]] LocalMemory& local(arch::CoreCoord c) {
    return locals_[map_.dims.index_of(c)];
  }
  [[nodiscard]] const LocalMemory& local(arch::CoreCoord c) const {
    return locals_[map_.dims.index_of(c)];
  }

  /// Direct span into external DRAM (host-side/functional use).
  [[nodiscard]] std::span<std::byte> external_span(std::uint32_t offset, std::size_t n) {
    const std::size_t bytes = map_.external_bytes;
    if (offset > bytes || n > bytes - offset) {
      throw std::out_of_range("external memory access out of the 32 MB window");
    }
    return std::span<std::byte>(external_ + offset, n);
  }

  /// Resolve a global address as seen by core `issuer` (local-alias
  /// addresses below 1 MB map to the issuer's own scratchpad).
  [[nodiscard]] std::span<std::byte> resolve(arch::Addr a, std::size_t n,
                                             arch::CoreCoord issuer) {
    if (arch::AddressMap::is_local_alias(a)) {
      return local(issuer).span(arch::AddressMap::local_offset(a), n);
    }
    if (map_.is_external(a)) {
      return external_span(map_.external_offset(a), n);
    }
    if (auto c = map_.core_of(a)) {
      return local(*c).span(arch::AddressMap::local_offset(a), n);
    }
    throw std::out_of_range("unmapped global address 0x" + hex(a));
  }

  // ---- functional reads/writes (timing is charged by the caller) -------

  void write_bytes(arch::Addr a, std::span<const std::byte> src, arch::CoreCoord issuer) {
    auto dst = resolve(a, src.size(), issuer);
    std::memcpy(dst.data(), src.data(), src.size());
    const arch::Addr ca = canonical(a, issuer);
    for (MemoryHook* h : hooks_) h->on_write(ca, src.size(), issuer, engine_->now());
    notify_watches(ca, static_cast<std::uint32_t>(src.size()));
  }
  void read_bytes(arch::Addr a, std::span<std::byte> dst, arch::CoreCoord issuer) {
    auto src = resolve(a, dst.size(), issuer);
    std::memcpy(dst.data(), src.data(), dst.size());
    const arch::Addr ca = canonical(a, issuer);
    for (MemoryHook* h : hooks_) h->on_read(ca, dst.size(), issuer, engine_->now());
  }

  template <typename T>
  void write_value(arch::Addr a, T v, arch::CoreCoord issuer) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_bytes(a, std::as_bytes(std::span<const T, 1>(&v, 1)), issuer);
  }

  /// Bulk u32 store: observably identical to `write_value<u32>(a + 4*i,
  /// w[i], issuer)` for ascending i -- every hook sees the same per-word
  /// on_write calls in the same order (a fault hook's flip draw depends on
  /// the call size), and watchers wake in the same order (ascending address,
  /// FIFO per address) -- but resolves once, copies once and walks the watch
  /// index once. A range that leaves its scratchpad or the DRAM window
  /// throws out_of_range before any byte is written.
  void write_words(arch::Addr a, std::span<const std::uint32_t> w,
                   arch::CoreCoord issuer) {
    if (w.empty()) return;
    const std::size_t n = w.size_bytes();
    auto dst = resolve(a, n, issuer);
    std::memcpy(dst.data(), w.data(), n);
    const arch::Addr ca = canonical(a, issuer);
    if (!hooks_.empty()) {
      const sim::Cycles now = engine_->now();
      for (std::size_t i = 0; i < w.size(); ++i) {
        const arch::Addr wa = ca + static_cast<arch::Addr>(4 * i);
        for (MemoryHook* h : hooks_) h->on_write(wa, 4, issuer, now);
      }
    }
    notify_watches(ca, static_cast<std::uint32_t>(n));
  }

  template <typename T>
  [[nodiscard]] T read_value(arch::Addr a, arch::CoreCoord issuer) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read_bytes(a, std::as_writable_bytes(std::span<T, 1>(&v, 1)), issuer);
    return v;
  }

  /// Copy between two global ranges.
  void copy(arch::Addr dst, arch::Addr src, std::size_t n, arch::CoreCoord issuer) {
    auto s = resolve(src, n, issuer);
    auto d = resolve(dst, n, issuer);
    std::memmove(d.data(), s.data(), n);
    const arch::Addr cd = canonical(dst, issuer);
    if (!hooks_.empty()) {
      const arch::Addr cs = canonical(src, issuer);
      for (MemoryHook* h : hooks_) {
        h->on_read(cs, n, issuer, engine_->now());
        h->on_write(cd, n, issuer, engine_->now());
      }
    }
    notify_watches(cd, static_cast<std::uint32_t>(n));
  }

  /// Commit one DMA chunk: observably identical to copy_run() on each run in
  /// order -- same bytes, same hook calls with the same canonical addresses
  /// and sizes, watchers woken in the same order -- but a chunk whose source
  /// and destination each lie in one 1 MB window resolves each side once,
  /// and walks the watch index only if some watch overlaps the destination.
  /// Hooked or not, only a chunk that spans two windows or does not resolve
  /// commits run by run, so a bad descriptor fails at the same run either
  /// way.
  void copy_runs(std::span<const CopyRun> runs, std::uint32_t esz, arch::CoreCoord issuer) {
    if (runs.empty()) return;
    const Hull src = hull(runs, &CopyRun::src, esz);
    const Hull dst = hull(runs, &CopyRun::dst, esz);
    std::byte* s = nullptr;
    std::byte* d = nullptr;
    if (src.one_window() && dst.one_window()) {
      try {
        s = resolve(src.lo, src.bytes(), issuer).data();
        d = resolve(dst.lo, dst.bytes(), issuer).data();
      } catch (const std::out_of_range&) {
        s = d = nullptr;  // some run does not resolve: let it throw below
      }
    }
    if (d == nullptr) {
      for (const CopyRun& r : runs) copy_run(r, esz, issuer);
      return;
    }
    // Inside one window every address canonicalises by the same offset, so
    // cs + s_off and cd + d_off are a run's canonical ends. Each step (one
    // element of an overlapping run, else the whole run) is one copy():
    // bytes, then every hook's on_read and on_write, then the wake-ups.
    // Neither hooks nor notifying add a watch, so none appears mid-loop.
    const arch::Addr cs = canonical(src.lo, issuer);
    const arch::Addr cd = canonical(dst.lo, issuer);
    const bool watched = any_watch(cd, dst.bytes());
    const std::span<MemoryHook* const> hooks(hooks_);
    const sim::Cycles now = engine_->now();
    for (const CopyRun& r : runs) {
      const arch::Addr s_off = r.src - src.lo;
      const arch::Addr d_off = r.dst - dst.lo;
      const std::size_t step = element_order(cs + s_off, cd + d_off, r.elems, esz)
                                   ? esz
                                   : std::size_t{r.elems} * esz;
      for (std::size_t o = 0; o < std::size_t{r.elems} * esz; o += step) {
        std::memmove(d + d_off + o, s + s_off + o, step);
        const auto o32 = static_cast<arch::Addr>(o);
        for (MemoryHook* h : hooks) {
          h->on_read(cs + s_off + o32, step, issuer, now);
          h->on_write(cd + d_off + o32, step, issuer, now);
        }
        if (watched) notify_watches(cd + d_off + o32, static_cast<std::uint32_t>(step));
      }
    }
  }

  // ---- watches: event-driven flag waits ---------------------------------

  /// The steps of a flag wait (CoreCtx::wait_u32, the spin loops of
  /// Listings 1/2 with a small wake-up cost instead of per-cycle polling):
  /// park until the next write overlapping the word at `a` ...
  [[nodiscard]] auto watch(arch::Addr a, arch::CoreCoord issuer) noexcept {
    return WatchAwaiter{*this, canonical(a, issuer)};
  }
  /// ... read the flag invisibly to every hook (it is the synchronisation
  /// itself) ...
  [[nodiscard]] std::uint32_t read_u32_raw(arch::Addr a, arch::CoreCoord issuer) {
    std::uint32_t v;
    auto src = resolve(a, sizeof v, issuer);
    std::memcpy(&v, src.data(), sizeof v);
    return v;
  }
  /// ... and, once the predicate holds, report one acquire to the hooks.
  void acquired(arch::CoreCoord issuer) {
    for (MemoryHook* h : hooks_) h->on_sync(issuer, engine_->now());
  }

  /// A synchronising read (e.g. a mutex TESTSET probe): functionally a plain
  /// u32 load, but reported to the hook as an acquire rather than a data
  /// read, so the sanitizer treats subsequent remote data as ordered.
  [[nodiscard]] std::uint32_t read_u32_acquire(arch::Addr a, arch::CoreCoord issuer) {
    const std::uint32_t v = read_u32_raw(a, issuer);
    acquired(issuer);
    return v;
  }

  [[nodiscard]] std::size_t active_watches() const noexcept { return watches_.size(); }

  /// Attach a traffic observer. Hooks compose: every attached hook sees
  /// every access, in attachment order (sanitizer + tracer can coexist).
  /// Hooks are not owned; adding an already-attached hook is a no-op.
  void add_hook(MemoryHook* hook) {
    if (hook == nullptr) return;
    if (std::find(hooks_.begin(), hooks_.end(), hook) == hooks_.end()) {
      hooks_.push_back(hook);
    }
  }
  void remove_hook(MemoryHook* hook) noexcept {
    hooks_.erase(std::remove(hooks_.begin(), hooks_.end(), hook), hooks_.end());
  }
  [[nodiscard]] const std::vector<MemoryHook*>& hooks() const noexcept {
    return hooks_;
  }

private:
  /// Width of a watched location: watches always guard one u32 flag word.
  static constexpr arch::Addr kWatchBytes = 4;

  struct WatchAwaiter {
    MemorySystem& mem;
    arch::Addr addr;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      mem.watches_.emplace(addr, h);
    }
    void await_resume() const noexcept {}
  };

  /// Canonicalise a local-alias address to its global form so that a remote
  /// writer's store to the global address wakes a local-alias watcher.
  [[nodiscard]] arch::Addr canonical(arch::Addr a, arch::CoreCoord issuer) const noexcept {
    if (arch::AddressMap::is_local_alias(a)) {
      return map_.global(issuer, arch::AddressMap::local_offset(a));
    }
    return a;
  }

  /// Wake every watcher whose word overlaps the written range [lo, lo+n).
  /// The index is ordered by watch address, so a store only visits the
  /// watchers it can affect -- O(log w + hits) instead of a scan of every
  /// watcher in the machine on every store. A watch at `w` overlaps iff
  /// w in (lo - kWatchBytes, lo + n), which is one equal-range walk.
  void notify_watches(arch::Addr lo, std::uint32_t n) {
    if (watches_.empty()) return;
    const arch::Addr hi = lo + n;
    auto it = watches_.lower_bound(watch_floor(lo));
    while (it != watches_.end() && it->first < hi) {
      engine_->schedule_in(1, it->second);  // wake next cycle; watcher re-checks
      it = watches_.erase(it);
    }
  }
  /// True if a store to [lo, lo+n) would wake some watcher.
  [[nodiscard]] bool any_watch(arch::Addr lo, std::uint32_t n) const {
    if (watches_.empty()) return false;
    auto it = watches_.lower_bound(watch_floor(lo));
    return it != watches_.end() && it->first < lo + n;
  }
  /// Lowest watch address whose word can overlap a store starting at `lo`.
  static arch::Addr watch_floor(arch::Addr lo) noexcept {
    return lo >= kWatchBytes - 1 ? lo - (kWatchBytes - 1) : 0;
  }

  /// One run of a chunk as copy() calls. An overlapping run (|src-dst|
  /// smaller than the run) goes element by element, so the value propagation
  /// matches the hardware's element-at-a-time walk rather than memmove.
  void copy_run(const CopyRun& r, std::uint32_t esz, arch::CoreCoord issuer) {
    if (!element_order(canonical(r.src, issuer), canonical(r.dst, issuer), r.elems, esz)) {
      copy(r.dst, r.src, std::size_t{r.elems} * esz, issuer);
      return;
    }
    for (std::uint32_t e = 0; e < r.elems; ++e) {
      copy(r.dst + e * esz, r.src + e * esz, esz, issuer);
    }
  }
  /// Whether a run of `elems` elements from `src` to `dst` overlaps itself.
  /// Both are canonical addresses: the issuer's local alias and its global
  /// address name the same bytes.
  static bool element_order(arch::Addr src, arch::Addr dst, std::uint32_t elems,
                            std::uint32_t esz) noexcept {
    const arch::Addr dist = src > dst ? src - dst : dst - src;
    return elems > 1 && dist != 0 && dist < elems * esz;
  }

  /// The byte range [lo, hi) that one side of a chunk's runs covers. Inside
  /// one 1 MB window every address resolves the way `lo` does, so resolving
  /// the hull resolves every run in it.
  struct Hull {
    arch::Addr lo;
    std::uint64_t hi;  // 64-bit: a run may end exactly at 2^32
    [[nodiscard]] bool one_window() const noexcept {
      return (lo >> arch::AddressMap::kCoreWindowBits) ==
             ((hi - 1) >> arch::AddressMap::kCoreWindowBits);
    }
    [[nodiscard]] std::uint32_t bytes() const noexcept {
      return static_cast<std::uint32_t>(hi - lo);
    }
  };
  static Hull hull(std::span<const CopyRun> runs, arch::Addr CopyRun::*side,
                   std::uint32_t esz) noexcept {
    Hull h{runs.front().*side, 0};
    for (const CopyRun& r : runs) {
      h.lo = std::min(h.lo, r.*side);
      h.hi = std::max(h.hi, r.*side + std::uint64_t{r.elems} * esz);
    }
    return h;
  }

  /// `n` zero bytes in an anonymous private mapping, committed page by page
  /// on first touch and unmapped on destruction.
  class Mapping {
  public:
    explicit Mapping(std::size_t n)
        : n_(n),
          p_(::mmap(nullptr, n, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
      if (p_ == MAP_FAILED) throw std::bad_alloc();
    }
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping() { ::munmap(p_, n_); }
    [[nodiscard]] std::byte* data() const noexcept { return static_cast<std::byte*>(p_); }

  private:
    std::size_t n_;
    void* p_;
  };

  static std::string hex(arch::Addr a) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08X", a);
    return buf;
  }

  arch::AddressMap map_;
  sim::Engine* engine_;
  Mapping arena_;  // every scratchpad, then the DRAM window
  std::vector<LocalMemory> locals_;  // views into arena_, by core index
  std::byte* external_ = nullptr;    // map_.external_bytes of DRAM in arena_
  // Active watches keyed by watched word address; equal keys keep insertion
  // order (std::multimap), so wake order within one store is deterministic:
  // ascending address, FIFO per address.
  std::multimap<arch::Addr, std::coroutine_handle<>> watches_;
  std::vector<MemoryHook*> hooks_;
};

}  // namespace epi::mem
