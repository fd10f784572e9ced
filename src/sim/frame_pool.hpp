#pragma once
// Free-list recycler for coroutine frames.
//
// Simulation coroutines are allocation-heavy in a very particular way:
// every awaited sub-operation (a posted store, a flag wait, a DMA chunk, a
// barrier leg) materialises a short-lived Op<T> frame, so a single off-chip
// matmul or 63x63-core stencil run creates and destroys millions of frames
// drawn from a handful of distinct sizes (one per coroutine function).
// Routing the promise-level operator new/delete through a size-class free
// list turns almost every frame allocation into a pop from a vector, which
// measurably beats the general-purpose allocator on this workload (see
// BM_FrameAllocation in abl_simperf).
//
// Each block carries a small header recording its size class, so
// deallocation needs only the pointer and works regardless of whether the
// compiler calls the sized or unsized promise operator delete. Blocks above
// kMaxPooled bytes (rare: frames with big inline arrays) fall through to
// the global allocator.
//
// Under AddressSanitizer the pool forwards straight to the global
// allocator: recycling frames would hide use-after-free on dangling
// coroutine handles from the sanitizer, and the sanitized suite has caught
// exactly that class of bug before.
//
// The pool is thread_local, so it needs no synchronisation: the simulator
// itself is single-threaded, and a program that runs independent machines
// on threads of its own gets one pool per thread. A block freed on a
// different thread than the one that allocated it simply parks on that
// thread's free list -- blocks are plain operator-new storage with a
// self-describing size-class header, so which pool recycles them is
// immaterial.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define EPI_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EPI_FRAME_POOL_PASSTHROUGH 1
#endif
#endif

namespace epi::sim {

class FramePool {
public:
  struct Stats {
    std::uint64_t allocated = 0;   // total frame allocations served
    std::uint64_t recycled = 0;    // of which came from a free list
    std::uint64_t released = 0;    // total frame deallocations
    std::uint64_t oversized = 0;   // fell through to the global allocator
    std::size_t cached_blocks = 0; // currently parked on free lists
  };

  static void* allocate(std::size_t n) { return inst().do_allocate(n); }
  static void deallocate(void* p) noexcept { inst().do_deallocate(p); }

  [[nodiscard]] static Stats stats() noexcept { return inst().stats_; }

  /// Return every cached block to the global allocator (benchmarks use this
  /// to measure cold-start allocation cost; stats counters are preserved).
  static void trim() noexcept { inst().do_trim(); }

private:
  // Frames are bucketed at kGranularity resolution up to kMaxPooled bytes.
  static constexpr std::size_t kHeader = 2 * sizeof(std::max_align_t);
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooled = 4096;
  static constexpr std::size_t kClasses = kMaxPooled / kGranularity;
  static constexpr std::uint32_t kOversized = ~std::uint32_t{0};

  static FramePool& inst() noexcept {
    thread_local FramePool pool;
    return pool;
  }

  void* do_allocate(std::size_t n) {
    ++stats_.allocated;
    const std::size_t total = n + kHeader;
#if !defined(EPI_FRAME_POOL_PASSTHROUGH)
    if (total <= kMaxPooled) {
      const std::size_t cls = (total + kGranularity - 1) / kGranularity;
      auto& list = free_[cls - 1];
      std::byte* base;
      if (!list.empty()) {
        base = list.back();
        list.pop_back();
        ++stats_.recycled;
        --stats_.cached_blocks;
      } else {
        base = static_cast<std::byte*>(::operator new(cls * kGranularity));
      }
      *reinterpret_cast<std::uint32_t*>(base) = static_cast<std::uint32_t>(cls);
      return base + kHeader;
    }
#endif
    ++stats_.oversized;
    std::byte* base = static_cast<std::byte*>(::operator new(total));
    *reinterpret_cast<std::uint32_t*>(base) = kOversized;
    return base + kHeader;
  }

  void do_deallocate(void* p) noexcept {
    if (p == nullptr) return;
    ++stats_.released;
    std::byte* base = static_cast<std::byte*>(p) - kHeader;
    const std::uint32_t cls = *reinterpret_cast<std::uint32_t*>(base);
    if (cls == kOversized) {
      ::operator delete(base);
      return;
    }
    free_[cls - 1].push_back(base);
    ++stats_.cached_blocks;
  }

  void do_trim() noexcept {
    for (auto& list : free_) {
      for (std::byte* base : list) ::operator delete(base);
      list.clear();
    }
    stats_.cached_blocks = 0;
  }

  ~FramePool() { do_trim(); }

  std::vector<std::byte*> free_[kClasses];
  Stats stats_;
};

}  // namespace epi::sim
