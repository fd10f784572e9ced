#pragma once
// Device-side programming interface -- the eSDK workalike (paper section III).
//
// A kernel is a coroutine `sim::Op<void> kernel(device::CoreCtx& ctx)`. The
// CoreCtx provides the same capabilities the Epiphany SDK gives device code:
//   * identity within the workgroup and neighbour/global addressing,
//   * direct reads/writes to any global address (with modelled costs),
//   * the two DMA channels (descriptors, chaining, start/wait),
//   * the two event timers,
//   * barriers and hardware-mutex operations,
//   * zero-cost typed views into the core's own scratchpad, used by kernels
//     for functional computation whose cycles are charged from a schedule
//     model (see core/ for the stencil and matmul schedules).
//
// The bottom 512 bytes of each scratchpad (0x0000-0x01FF, inside the region
// kernels treat as their code bank) are reserved for the runtime: barrier
// arrival slots, barrier release word, and the kernel status word the host
// watches. Kernel data layouts (e.g. the paper's matmul placement of C at
// 0x7000-0x7FFF) are unaffected.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "arch/address_map.hpp"
#include "dma/descriptor.hpp"
#include "arch/coords.hpp"
#include "fault/crc.hpp"
#include "machine/machine.hpp"
#include "sim/task.hpp"
#include "trace/tracer.hpp"

namespace epi::device {

/// Placement of a workgroup on the mesh (e_open in the eSDK).
struct GroupInfo {
  arch::CoreCoord origin{};
  unsigned rows = 1;
  unsigned cols = 1;

  [[nodiscard]] unsigned size() const noexcept { return rows * cols; }
  [[nodiscard]] bool contains_group_coord(unsigned r, unsigned c) const noexcept {
    return r < rows && c < cols;
  }
};

class CoreCtx {
public:
  // Runtime-reserved scratchpad layout (bottom 512 bytes).
  static constexpr arch::Addr kRuntimeReservedBase = 0x0000;
  static constexpr arch::Addr kRuntimeReservedEnd = 0x0200;
  static constexpr arch::Addr kBarrierSlotsOffset = 0x0000;  // group-root array
  static constexpr arch::Addr kBarrierReleaseOffset = 0x0100;
  static constexpr arch::Addr kStatusOffset = 0x0108;        // 0=running 1=done

  CoreCtx(machine::Machine& m, arch::CoreCoord coord, GroupInfo group)
      : m_(&m), coord_(coord), group_(group) {}

  // ---- identity ---------------------------------------------------------
  [[nodiscard]] arch::CoreCoord coord() const noexcept { return coord_; }
  [[nodiscard]] unsigned group_row() const noexcept { return coord_.row - group_.origin.row; }
  [[nodiscard]] unsigned group_col() const noexcept { return coord_.col - group_.origin.col; }
  [[nodiscard]] unsigned group_rows() const noexcept { return group_.rows; }
  [[nodiscard]] unsigned group_cols() const noexcept { return group_.cols; }
  [[nodiscard]] unsigned group_index() const noexcept {
    return group_row() * group_.cols + group_col();
  }
  [[nodiscard]] const GroupInfo& group() const noexcept { return group_; }
  [[nodiscard]] machine::Machine& machine() noexcept { return *m_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return m_->engine(); }
  [[nodiscard]] const arch::TimingParams& timing() const noexcept { return m_->timing(); }
  [[nodiscard]] sim::Cycles now() const noexcept { return m_->engine().now(); }

  /// Neighbour within the workgroup (no wrap); false at a group edge.
  [[nodiscard]] bool neighbour(arch::Dir d, arch::CoreCoord& out) const noexcept {
    const unsigned r = group_row();
    const unsigned c = group_col();
    switch (d) {
      case arch::Dir::North:
        if (r == 0) return false;
        out = {coord_.row - 1, coord_.col};
        return true;
      case arch::Dir::South:
        if (r + 1 >= group_.rows) return false;
        out = {coord_.row + 1, coord_.col};
        return true;
      case arch::Dir::West:
        if (c == 0) return false;
        out = {coord_.row, coord_.col - 1};
        return true;
      case arch::Dir::East:
        if (c + 1 >= group_.cols) return false;
        out = {coord_.row, coord_.col + 1};
        return true;
    }
    return false;
  }

  /// Neighbour with torus wrap-around within the group (Cannon's algorithm
  /// rotates blocks around rows/columns of the workgroup).
  [[nodiscard]] arch::CoreCoord neighbour_wrap(arch::Dir d) const noexcept {
    unsigned r = group_row();
    unsigned c = group_col();
    switch (d) {
      case arch::Dir::North: r = (r + group_.rows - 1) % group_.rows; break;
      case arch::Dir::South: r = (r + 1) % group_.rows; break;
      case arch::Dir::West: c = (c + group_.cols - 1) % group_.cols; break;
      case arch::Dir::East: c = (c + 1) % group_.cols; break;
    }
    return {group_.origin.row + r, group_.origin.col + c};
  }

  /// Global address of `offset` in core `c`'s scratchpad (e_get_global_address).
  [[nodiscard]] arch::Addr global(arch::CoreCoord c, arch::Addr offset) const noexcept {
    return m_->mem().map().global(c, offset);
  }
  [[nodiscard]] arch::Addr my_global(arch::Addr offset) const noexcept {
    return global(coord_, offset);
  }

  // ---- scratchpad views (functional, zero sim cost) ---------------------
  /// Typed span over this core's own scratchpad. Kernels use these for the
  /// functional side of computation; cycles are charged separately via
  /// compute() from a schedule model.
  template <typename T>
  [[nodiscard]] std::span<T> local_array(arch::Addr offset, std::size_t count) {
    auto bytes = m_->mem().local(coord_).span(offset, count * sizeof(T));
    return std::span<T>(reinterpret_cast<T*>(bytes.data()), count);
  }

  // ---- tracing -----------------------------------------------------------
  // Phase spans feed the epi-trace cycle-attribution profiler. Only the
  // *outermost* phase is recorded (depth suppression), so a kernel-level
  // scope like phase(Phase::Comm, "page-in") absorbs the smaller spans the
  // primitives below would otherwise emit, spans never overlap, and the
  // per-core attribution partitions the run exactly.

  /// RAII guard closing a phase opened by CoreCtx::phase().
  class PhaseScope {
  public:
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope() { ctx_->phase_end(); }

  private:
    friend class CoreCtx;
    explicit PhaseScope(CoreCtx& ctx) noexcept : ctx_(&ctx) {}
    CoreCtx* ctx_;
  };

  void phase_begin(trace::Phase p, std::string_view name) {
    if (++trace_depth_ == 1) {
      if (auto* t = m_->tracer()) t->core_begin(coord_, p, name, now());
    }
  }
  void phase_end() {
    if (trace_depth_-- == 1) {
      if (auto* t = m_->tracer()) t->core_end(coord_, now());
    }
  }
  /// Open a named phase for the current scope (kernels use this to label
  /// whole algorithm stages, e.g. the off-chip matmul's "page-in").
  [[nodiscard]] PhaseScope phase(trace::Phase p, std::string_view name) {
    phase_begin(p, name);
    return PhaseScope(*this);
  }
  /// Kernel-reported retired floating-point work (the "flops" counters).
  void count_flops(double flops) {
    if (auto* t = m_->tracer()) t->count_flops(coord_, now(), flops);
  }

  // ---- timed operations --------------------------------------------------
  /// Pure computation lasting `c` cycles. The awaitable is fault-aware: a
  /// killed core's op parks forever, a stalled core's defers to the window
  /// end (identical to sim::Delay when no faults target this core).
  [[nodiscard]] fault::TimedOp compute(sim::Cycles c) {
    return timed(trace::Phase::Compute, "compute", c);
  }

  /// Posted remote (or local) word store: functional write + issue cost.
  /// Stores into the external window cross the eLink (off-chip write
  /// network) and contend with other off-chip traffic.
  sim::Op<void> write_u32(arch::Addr a, std::uint32_t v) {
    auto ph = phase(trace::Phase::Comm, "store");
    if (m_->mem().map().is_external(a)) {
      co_await m_->elink_write().txn(coord_, 4);
    } else {
      co_await compute(store_cost(a));
    }
    m_->mem().write_value<std::uint32_t>(a, v, coord_);
  }
  sim::Op<void> write_f32(arch::Addr a, float v) {
    return write_u32(a, std::bit_cast<std::uint32_t>(v));
  }

  /// CPU store stream into external DRAM (the Table II/III benchmark writes
  /// 2 KB blocks as sequences of 4-byte stores). Modelled as one eLink
  /// write transaction of `bytes`; the issuing core blocks until the xMesh
  /// drains it, which is what the measured starvation reflects.
  sim::Op<void> external_write_block(arch::Addr dst, arch::Addr src, std::uint32_t bytes) {
    if (!m_->mem().map().is_external(dst)) {
      throw std::invalid_argument("external_write_block requires an external destination");
    }
    auto ph = phase(trace::Phase::Comm, "elink-write");
    co_await m_->elink_write().txn(coord_, bytes);
    m_->mem().copy(dst, src, bytes, coord_);
    // With corruption faults armed, the block is CRC-checked end to end and
    // resent with exponential backoff on mismatch (bounded, like the
    // scheduler's launch retry policy).
    if (auto* inj = m_->faults(); inj != nullptr && inj->any_corruption()) {
      inj->corrupt_elink(0, dst, bytes, coord_);
      for (unsigned attempt = 1; !crc_matches(dst, src, bytes); ++attempt) {
        if (attempt > kTransferRetries) {
          throw fault::TransferError("eLink write from core " + arch::to_string(coord_) +
                                     " failed CRC after " +
                                     std::to_string(kTransferRetries) + " retries");
        }
        inj->note_transfer_retry(coord_);
        co_await sim::delay(m_->engine(), kRetryBackoff << (attempt - 1));
        co_await m_->elink_write().txn(coord_, bytes);
        m_->mem().copy(dst, src, bytes, coord_);
        inj->corrupt_elink(0, dst, bytes, coord_);
      }
    }
  }

  /// Word load; remote loads pay the read-network round trip.
  sim::Op<std::uint32_t> read_u32(arch::Addr a) {
    auto ph = phase(owner_of(a) == coord_ ? trace::Phase::Compute : trace::Phase::Comm,
                    "load");
    co_await compute(load_cost(a));
    co_return m_->mem().read_value<std::uint32_t>(a, coord_);
  }

  /// CPU bulk copy from this core's scratchpad to a remote core (the
  /// Listing 1 "direct writes" idiom: fully unrolled load/store pairs).
  /// Cost follows the Table I calibration; data commits on completion.
  sim::Op<void> direct_write_block(arch::Addr dst, arch::Addr src, std::uint32_t bytes) {
    auto ph = phase(trace::Phase::Comm, "direct-write");
    const arch::CoreCoord target = owner_of(dst);
    const std::uint32_t words = (bytes + 3) / 4;
    co_await compute(m_->mesh().direct_copy_cycles(coord_, target, words));
    m_->mem().copy(dst, src, bytes, coord_);
  }

  /// Spin until the word at `a` satisfies `pred` (event-driven; models the
  /// flag-polling loops in the paper's listings): re-checked after every
  /// write overlapping `a`. The flag reads are invisible to any hook (they
  /// are the synchronisation itself); on success the hooks see one acquire.
  template <typename Pred>
  sim::Op<void> wait_u32(arch::Addr a, Pred pred) {
    auto ph = phase(trace::Phase::Sync, "flag-wait");
    mem::MemorySystem& mem = m_->mem();
    while (!pred(mem.read_u32_raw(a, coord_))) co_await mem.watch(a, coord_);
    mem.acquired(coord_);
  }
  sim::Op<void> wait_u32_ge(arch::Addr a, std::uint32_t v) {
    return wait_u32(a, [v](std::uint32_t x) { return x >= v; });
  }
  sim::Op<void> wait_u32_eq(arch::Addr a, std::uint32_t v) {
    return wait_u32(a, [v](std::uint32_t x) { return x == v; });
  }

  // ---- DMA ----------------------------------------------------------------
  /// e_dma_set_desc: charge the descriptor-construction cost. The C++
  /// descriptor object is built by the caller (dma::DmaDescriptor helpers).
  [[nodiscard]] fault::TimedOp dma_set_desc() {
    return timed(trace::Phase::Comm, "dma-setup", timing().dma_set_desc_cycles);
  }
  /// e_dma_start: charge the start cost, then kick the channel.
  sim::Op<void> dma_start(unsigned chan, const dma::DmaDescriptor& d) {
    check_chan(chan);
    auto ph = phase(trace::Phase::Comm, "dma-start");
    co_await compute(timing().dma_start_cycles);
    m_->core(coord_).dma[chan].start(d);
  }
  /// e_dma_wait: block until the channel is idle. (check_chan stays in the
  /// non-coroutine wrapper so a bad channel throws at the call, not at the
  /// co_await.)
  sim::Op<void> dma_wait(unsigned chan) {
    check_chan(chan);
    return dma_wait_impl(chan);
  }
  [[nodiscard]] bool dma_busy(unsigned chan) {
    check_chan(chan);
    return m_->core(coord_).dma[chan].busy();
  }

  // ---- event timers -------------------------------------------------------
  [[nodiscard]] machine::CTimer& ctimer(unsigned idx) {
    if (idx > 1) throw std::out_of_range("eCores have two ctimers");
    return m_->core(coord_).ctimer[idx];
  }

  // ---- synchronisation ----------------------------------------------------
  /// Workgroup barrier (e_barrier): members post arrival to the group root;
  /// the root releases everyone by bumping their release generation.
  sim::Op<void> barrier() {
    auto ph = phase(trace::Phase::Sync, "barrier");
    const arch::CoreCoord root = group_.origin;
    const std::uint32_t gen = ++barrier_gen_;
    const unsigned n = group_.size();
    if (coord_ == root) {
      // Wait for every member's arrival word to reach this generation.
      for (unsigned i = 1; i < n; ++i) {
        co_await wait_u32_ge(slot_addr(root, i), gen);
      }
      // Release all members (posted stores), then self.
      for (unsigned i = 1; i < n; ++i) {
        const arch::CoreCoord member{group_.origin.row + i / group_.cols,
                                     group_.origin.col + i % group_.cols};
        co_await write_u32(global(member, kBarrierReleaseOffset), gen);
      }
    } else {
      co_await write_u32(slot_addr(root, group_index()), gen);
      co_await wait_u32_ge(my_global(kBarrierReleaseOffset), gen);
    }
  }

  /// Hardware mutex: atomic TESTSET round trip on the word at `a`
  /// (which lives in some core's scratchpad, per the SDK's workgroup mutex).
  sim::Op<void> mutex_lock(arch::Addr a) {
    auto ph = phase(trace::Phase::Sync, "mutex-lock");
    const arch::CoreCoord owner = owner_of(a);
    const sim::Cycles cost =
        timing().mutex_testset_base_cycles +
        static_cast<sim::Cycles>(timing().mutex_testset_cycles_per_hop *
                                 arch::manhattan_distance(coord_, owner));
    for (;;) {
      co_await compute(cost);
      // DES commit points are atomic: read-modify-write cannot interleave.
      // The TESTSET probe is an acquire, not a data read: on success the
      // sanitizer must treat prior remote writes as ordered.
      if (m_->mem().read_u32_acquire(a, coord_) == 0) {
        m_->mem().write_value<std::uint32_t>(a, lock_token(), coord_);
        co_return;
      }
      co_await wait_u32_eq(a, 0);  // spin until the holder releases
    }
  }
  sim::Op<void> mutex_unlock(arch::Addr a) {
    auto ph = phase(trace::Phase::Sync, "mutex-unlock");
    co_await compute(timing().remote_store_issue_cycles);
    m_->mem().write_value<std::uint32_t>(a, 0, coord_);
  }

private:
  /// Bounded retry for CRC-failed eLink block writes.
  static constexpr unsigned kTransferRetries = 4;
  static constexpr sim::Cycles kRetryBackoff = 64;

  /// A fixed-span delay, recorded as a phase span at issue time (safe: the
  /// issuing core resumes exactly at the span's end).
  [[nodiscard]] fault::TimedOp timed(trace::Phase p, std::string_view name, sim::Cycles c) {
    if (trace_depth_ == 0 && c > 0) {
      if (auto* t = m_->tracer()) t->core_span(coord_, p, name, now(), now() + c);
    }
    return fault::TimedOp{m_->engine(), c, m_->faults(), coord_};
  }

  [[nodiscard]] bool crc_matches(arch::Addr dst, arch::Addr src, std::uint32_t bytes) {
    return fault::crc32(m_->mem().resolve(src, bytes, coord_)) ==
           fault::crc32(m_->mem().resolve(dst, bytes, coord_));
  }

  /// The e_dma_wait loop: park on the channel until it is idle, then
  /// rethrow the error its chain failed with, if any.
  sim::Op<void> dma_wait_impl(unsigned chan) {
    auto ph = phase(trace::Phase::DmaWait, "dma-wait");
    dma::DmaChannel& ch = m_->core(coord_).dma[chan];
    while (ch.busy()) co_await ch.completion();
    ch.rethrow_if_failed();
  }

  [[nodiscard]] arch::CoreCoord owner_of(arch::Addr a) const {
    if (arch::AddressMap::is_local_alias(a)) return coord_;
    if (auto c = m_->mem().map().core_of(a)) return *c;
    return coord_;  // external: distance model not used for eLink traffic
  }
  [[nodiscard]] sim::Cycles store_cost(arch::Addr a) const {
    const arch::CoreCoord o = owner_of(a);
    if (o != coord_) return timing().remote_store_issue_cycles;
    return timing().local_access_cycles + bank_penalty(a);
  }
  /// Extra cycles for a local access whose bank a DMA stream currently
  /// occupies (only when MachineConfig::model_bank_conflicts is set).
  [[nodiscard]] sim::Cycles bank_penalty(arch::Addr a) const {
    if (!m_->config().model_bank_conflicts) return 0;
    return m_->mem().local(coord_).bank_conflict_penalty(
        arch::AddressMap::local_offset(a), m_->engine().now());
  }
  [[nodiscard]] sim::Cycles load_cost(arch::Addr a) const {
    const arch::CoreCoord o = owner_of(a);
    if (o == coord_) return timing().local_access_cycles + bank_penalty(a);
    sim::Cycles c = m_->mesh().remote_load_cycles(coord_, o);
    // E64G401 Errata #0 "Duplicate IO Transaction" (paper section V-B):
    // eCores in mesh row 2 and column 2 issue every data read (and
    // instruction fetch) twice -- DMA and writes are unaffected.
    if (m_->config().model_errata_duplicate_io && (coord_.row == 2 || coord_.col == 2)) {
      c *= 2;
    }
    return c;
  }
  [[nodiscard]] arch::Addr slot_addr(arch::CoreCoord root, unsigned index) const noexcept {
    return global(root, kBarrierSlotsOffset + 4 * index);
  }
  [[nodiscard]] std::uint32_t lock_token() const noexcept {
    return 0x80000000u | m_->mem().map().core_id(coord_);
  }
  static void check_chan(unsigned chan) {
    if (chan > 1) throw std::out_of_range("eCores have two DMA channels (0 and 1)");
  }

  machine::Machine* m_;
  arch::CoreCoord coord_;
  GroupInfo group_;
  std::uint32_t barrier_gen_ = 0;
  int trace_depth_ = 0;
};

/// A device kernel: one coroutine per eCore in the workgroup.
using KernelFn = std::function<sim::Op<void>(CoreCtx&)>;

}  // namespace epi::device
