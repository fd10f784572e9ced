#pragma once
// epi-shmem: an OpenSHMEM-style PGAS runtime over the flat coreid<<20
// address map (Ross & Richie, arXiv:1604.04205 / 1608.03545).
//
// The model: every PE (one eCore of a workgroup) owns an identically laid
// out *symmetric heap* in its scratchpad. An object allocated from the heap
// lives at the same local offset on every PE, so any PE can name any other
// PE's copy by composing the owner's global window with the shared offset --
// exactly the addressing trick the papers exploit on Epiphany, where
// remote scratchpads are plain loads/stores away.
//
// One-sided data movement follows the papers' split:
//   * small transfers issue direct remote stores / loads (the paper's
//     Listing-1 fully unrolled copy idiom),
//   * large transfers build DMA descriptors and let the engine stream them,
//   * put_with_signal chains a 4-byte flag store behind the data descriptor
//     so the payload is observable strictly before the flag.
// Synchronisation is flag-generation based: barrier_all is a dissemination
// barrier over per-round flag words, broadcast and the reductions run
// binomial trees, and every wait goes through CoreCtx::wait_u32 so the
// runtime MemSanitizer observes the acquire edge (a clean shmem program
// produces zero race findings).
//
// Everything is deterministic under the event engine, and observable through
// trace::Counters: shmem.puts / shmem.gets / shmem.bytes /
// shmem.barrier_waits / shmem.broadcasts / shmem.reductions.

#include <cstdint>
#include <memory>

#include "arch/address_map.hpp"
#include "arch/coords.hpp"
#include "device/core_ctx.hpp"
#include "machine/machine.hpp"
#include "sim/task.hpp"
#include "trace/counters.hpp"

namespace epi::shmem {

// ---- scratchpad layout ----------------------------------------------------
// The shmem runtime claims the 256 bytes right above the device runtime's
// reserved words (CoreCtx barrier slots / status) for its own flag words and
// staging slots; the symmetric heap spans bank 1 upward, leaving bank 0 as
// the conventional code bank.
inline constexpr arch::Addr kRuntimeBase = 0x0200;
inline constexpr unsigned kMaxRounds = 8;  // ceil(log2(64)) = 6 rounds + slack
inline constexpr arch::Addr kBarrierFlags = 0x0200;   // kMaxRounds x 4 B
inline constexpr arch::Addr kBcastFlag = 0x0220;      // broadcast arrival
inline constexpr arch::Addr kResultFlag = 0x0224;     // allreduce down-sweep
inline constexpr arch::Addr kReduceFlags = 0x0228;    // kMaxRounds x 4 B
inline constexpr arch::Addr kReduceSlots = 0x0248;    // kMaxRounds x 8 B
inline constexpr arch::Addr kResultSlot = 0x0288;     // 8 B reduced value
inline constexpr arch::Addr kSignalStage = 0x0290;    // 8 B DMA signal source
inline constexpr arch::Addr kRuntimeEnd = 0x0300;

inline constexpr arch::Addr kHeapBase = 0x2000;
inline constexpr arch::Addr kHeapEnd = arch::AddressMap::kLocalMemBytes;

/// Transfers of at most this many bytes use direct remote stores/loads;
/// larger ones build DMA descriptors (the papers' crossover regime).
inline constexpr std::uint32_t kDmaThreshold = 256;

/// Host-side bump allocator handing out offsets that are valid on *every*
/// PE's scratchpad (shmem_malloc). Deterministic: allocation order alone
/// decides placement.
class SymmetricHeap {
public:
  SymmetricHeap(arch::Addr base, arch::Addr end);

  /// Allocate `bytes` at `align` (power of two). Throws std::bad_alloc on
  /// exhaustion, std::invalid_argument on a bad alignment or zero size.
  [[nodiscard]] arch::Addr alloc(std::uint32_t bytes, std::uint32_t align = 8);
  void reset() noexcept { top_ = base_; }

  [[nodiscard]] arch::Addr base() const noexcept { return base_; }
  [[nodiscard]] arch::Addr end() const noexcept { return end_; }
  [[nodiscard]] std::uint32_t used() const noexcept {
    return static_cast<std::uint32_t>(top_ - base_);
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(end_ - base_);
  }

private:
  arch::Addr base_;
  arch::Addr end_;
  arch::Addr top_;
};

/// Shared state of one PGAS world: the workgroup shape, the symmetric heap,
/// and the counter registry. Constructing a Group scrubs the shmem runtime
/// words of every member core (host-side, zero simulated cost, issued as
/// each core's own write) so reused cores never see a stale generation.
///
/// Kernel closures hold the Group by shared_ptr; it names its cores by
/// machine + GroupInfo, not by a host::Workgroup.
class Group {
public:
  Group(machine::Machine& m, device::GroupInfo info);

  [[nodiscard]] machine::Machine& machine() noexcept { return *m_; }
  [[nodiscard]] const device::GroupInfo& info() const noexcept { return info_; }
  [[nodiscard]] SymmetricHeap& heap() noexcept { return heap_; }
  [[nodiscard]] unsigned n_pes() const noexcept { return info_.size(); }
  [[nodiscard]] arch::CoreCoord coord_of(unsigned pe) const noexcept {
    return {info_.origin.row + pe / info_.cols, info_.origin.col + pe % info_.cols};
  }

  /// The registry the shmem.* counters live in: the machine's, so every
  /// Group on one machine adds into the same counters.
  [[nodiscard]] const trace::Counters& counters() const noexcept { return m_->counters(); }

  /// Re-zero the runtime flag words (also done by the constructor).
  void reset_runtime_words();

  // Counter bumps (called by Pe on the device path; with a tracer armed the
  // machine also records the sample, so the series lands on the timeline).
  void note_put(std::uint32_t bytes);
  void note_get(std::uint32_t bytes);
  void note_barrier(unsigned waits);
  void note_broadcast();
  void note_reduction();

private:
  machine::Machine* m_;
  device::GroupInfo info_;
  SymmetricHeap heap_;
  trace::Counters::Id c_puts_ = trace::Counters::kNone;
  trace::Counters::Id c_gets_ = trace::Counters::kNone;
  trace::Counters::Id c_bytes_ = trace::Counters::kNone;
  trace::Counters::Id c_barrier_waits_ = trace::Counters::kNone;
  trace::Counters::Id c_broadcasts_ = trace::Counters::kNone;
  trace::Counters::Id c_reductions_ = trace::Counters::kNone;
};

enum class ReduceOp : std::uint8_t { Sum, Min, Max };

/// Per-PE handle a kernel constructs on its coroutine frame: identity,
/// addressing, one-sided puts/gets and the collectives. Generation counters
/// for the flag protocols live here, so one Pe must serve the whole kernel
/// (collective calls must be made by every PE in the same order -- the
/// usual SPMD contract).
class Pe {
public:
  Pe(device::CoreCtx& ctx, Group& group);

  [[nodiscard]] unsigned my_pe() const noexcept { return ctx_->group_index(); }
  [[nodiscard]] unsigned n_pes() const noexcept { return group_->n_pes(); }
  [[nodiscard]] device::CoreCtx& ctx() noexcept { return *ctx_; }
  [[nodiscard]] Group& group() noexcept { return *group_; }

  /// Global address of symmetric offset `sym_off` on PE `pe`.
  [[nodiscard]] arch::Addr remote(unsigned pe, arch::Addr sym_off) const;

  // ---- one-sided data movement (offsets are symmetric-heap offsets; byte
  // counts must be multiples of 4, as for OpenSHMEM's typed interfaces) ----
  /// Blocking put: copy `bytes` from my `src_off` into `target`'s `dst_off`.
  sim::Op<void> put(unsigned target, arch::Addr dst_off, arch::Addr src_off,
                    std::uint32_t bytes);
  /// Non-blocking put: large transfers stream on the DMA channel and return
  /// immediately; completion is observed by quiet()/fence().
  sim::Op<void> put_nbi(unsigned target, arch::Addr dst_off, arch::Addr src_off,
                        std::uint32_t bytes);
  /// Blocking get: copy `bytes` from `source`'s `src_off` into my `dst_off`.
  sim::Op<void> get(unsigned source, arch::Addr dst_off, arch::Addr src_off,
                    std::uint32_t bytes);
  /// Put, then make `sig_off` on the target observe `sig_val` -- the flag
  /// commits strictly after the payload (chained DMA descriptor on the large
  /// path, program-ordered store on the small path). The target acquires
  /// with wait_signal_ge().
  sim::Op<void> put_with_signal(unsigned target, arch::Addr dst_off,
                                arch::Addr src_off, std::uint32_t bytes,
                                arch::Addr sig_off, std::uint32_t sig_val);
  /// Spin (event-driven) until my copy of `sig_off` reaches `value`. The
  /// acquire edge is visible to the runtime sanitizer.
  sim::Op<void> wait_signal_ge(arch::Addr sig_off, std::uint32_t value);
  /// Complete all outstanding non-blocking puts from this PE.
  sim::Op<void> quiet();
  /// Order preceding puts before subsequent ones. One in-order channel per
  /// PE means completion is the ordering point: same as quiet().
  sim::Op<void> fence();

  // ---- collectives (every PE of the group must participate) --------------
  /// Dissemination barrier over per-round flag generations.
  sim::Op<void> barrier_all();
  /// Binomial-tree broadcast of `bytes` at symmetric `sym_off` from `root`.
  sim::Op<void> broadcast(unsigned root, arch::Addr sym_off, std::uint32_t bytes);
  /// Binomial-tree all-reduce; every PE returns the combined value.
  sim::Op<float> allreduce_f32(ReduceOp op, float v);
  sim::Op<std::int32_t> allreduce_i32(ReduceOp op, std::int32_t v);

private:
  sim::Op<void> dma_copy(arch::Addr dst, arch::Addr src, std::uint32_t bytes,
                         const dma::DmaDescriptor* chain);
  sim::Op<void> drain();  // wait out an outstanding non-blocking DMA
  sim::Op<std::uint32_t> allreduce_bits(ReduceOp op, bool is_float,
                                        std::uint32_t bits);

  static void check_len(std::uint32_t bytes);

  device::CoreCtx* ctx_;
  Group* group_;
  bool dma_outstanding_ = false;
  std::uint32_t barrier_gen_ = 0;
  std::uint32_t bcast_gen_ = 0;
  std::uint32_t reduce_gen_ = 0;

  static constexpr unsigned kChan = 1;  // shmem owns DMA channel 1
};

}  // namespace epi::shmem
