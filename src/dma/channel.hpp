#pragma once
// Per-eCore DMA engine: two channels (E_DMA_0 / E_DMA_1), each of which can
// walk a chain of 2D descriptors (paper sections II and VI).
//
// A started channel runs as its own simulation process, which keeps the
// chain's error for e_dma_wait to rethrow. Data moves in
// chunks: each chunk's elements are committed functionally (respecting the
// descriptor's strides) and its duration is the maximum of the DMA engine's
// own transaction rate (2.4 cycles/transaction, i.e. ~2 GB/s for DWORD
// streams -- Figure 2) and the network path occupancy, so concurrent
// streams contend realistically on mesh links and on the eLink.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coords.hpp"
#include "arch/timing.hpp"
#include "dma/descriptor.hpp"
#include "fault/crc.hpp"
#include "fault/injector.hpp"
#include "mem/memory_system.hpp"
#include "noc/elink.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"
#include "trace/tracer.hpp"

namespace epi::dma {

class DmaChannel {
public:
  DmaChannel(arch::CoreCoord owner, unsigned index, const arch::MachineConfig& cfg,
             sim::Engine& engine, mem::MemorySystem& mem, noc::MeshNetwork& mesh,
             noc::ELink& elink_write, noc::ELink& elink_read, const fault::Instruments& inst)
      : owner_(owner),
        index_(index),
        name_("dma" + std::to_string(index) + "@" + arch::to_string(owner)),
        timing_(&cfg.timing),
        model_bank_conflicts_(cfg.model_bank_conflicts),
        engine_(&engine),
        mem_(&mem),
        mesh_(&mesh),
        elink_write_(&elink_write),
        elink_read_(&elink_read),
        inst_(&inst),
        done_(engine) {}

  DmaChannel(const DmaChannel&) = delete;
  DmaChannel& operator=(const DmaChannel&) = delete;

  [[nodiscard]] bool busy() const noexcept { return busy_; }

  /// e_dma_start(): kick off a descriptor chain. The descriptor contents are
  /// copied, so the caller's storage may be reused immediately. Throws if
  /// the channel is already busy (starting a busy channel is a programming
  /// error on real hardware too).
  void start(const DmaDescriptor& desc) {
    if (busy_) throw std::logic_error("e_dma_start on a busy DMA channel");
    // Copy (and so validate) the whole chain before the channel goes busy: a
    // rejected chain leaves it idle.
    chain_.clear();
    for (const DmaDescriptor* d = &desc; d != nullptr; d = d->chain) {
      chain_.push_back(*d);
      chain_.back().chain = nullptr;
      if (chain_.size() > 64) throw std::logic_error("DMA descriptor chain too long (cycle?)");
    }
    busy_ = true;
    error_ = nullptr;
    sim::spawn(*engine_, run_chain(), 0, name_);
  }

  /// Park until the running chain ends. e_dma_wait loops on busy() and this
  /// (CoreCtx::dma_wait), then calls rethrow_if_failed().
  [[nodiscard]] auto completion() noexcept { return done_.wait(); }
  /// Rethrow the error the last chain failed with, if any.
  void rethrow_if_failed() const {
    if (error_) std::rethrow_exception(error_);
  }

  [[nodiscard]] std::uint64_t bytes_moved() const noexcept { return bytes_moved_; }

private:
  /// Bounded retry for CRC-failed external transfers: kRetryBackoff << n
  /// cycles before attempt n+1, up to kTransferRetries recommits.
  static constexpr unsigned kTransferRetries = 4;
  static constexpr sim::Cycles kRetryBackoff = 64;

  // With a tracer armed (inst_->tracer), chain and descriptor spans and
  // per-chunk commit instants land on this channel's own track. With a fault
  // injector armed, external-route chunks become CRC-checked with bounded
  // retry.
  sim::Op<void> run_chain() {
    try {
      begin_span("chain");
      co_await sim::delay(*engine_, timing_->dma_channel_latency_cycles);
      for (std::size_t i = 0; i < chain_.size(); ++i) {
        if (i > 0) co_await sim::delay(*engine_, timing_->dma_chain_latency_cycles);
        begin_span("descriptor");
        co_await run_descriptor(chain_[i]);
        end_span();
      }
      end_span();
    } catch (...) {
      error_ = std::current_exception();  // rethrown by e_dma_wait
    }
    busy_ = false;
    done_.notify_all();
  }

  void begin_span(const char* name) {
    if (trace::Tracer* const tr = inst_->tracer) {
      tr->begin(tr->dma_track(owner_, index_), trace::Phase::Comm, name, engine_->now());
    }
  }
  void end_span() {
    if (trace::Tracer* const tr = inst_->tracer) {
      tr->end(tr->dma_track(owner_, index_), engine_->now());
    }
  }

  sim::Op<void> run_descriptor(DmaDescriptor d) {
    const auto esz = static_cast<std::uint32_t>(static_cast<std::uint8_t>(d.elem));
    const std::uint32_t chunk_elems =
        std::max<std::uint32_t>(1, timing_->dma_chunk_bytes / esz);

    // Classify the route once: descriptors cannot straddle windows.
    const Route route = classify(d.src, d.dst);

    Cursor at{d.src, d.dst};
    chunk_.clear();  // a failed descriptor may have left runs behind
    while (const std::uint32_t n = gather(d, at, esz, chunk_elems)) {
      co_await flush_chunk(n, esz, route);
    }
  }

  /// Where a descriptor walk stands: the next element's addresses and its
  /// (outer, inner) index.
  struct Cursor {
    arch::Addr src;
    arch::Addr dst;
    std::uint32_t o = 0;
    std::uint32_t i = 0;
  };

  /// Walk up to `room` more elements of `d` from `at` into chunk_ and return
  /// how many were walked (0 once the descriptor is done). A plain function,
  /// not part of the coroutine, so the walk runs in registers.
  std::uint32_t gather(const DmaDescriptor& d, Cursor& at, std::uint32_t esz,
                       std::uint32_t room) {
    // Rows contiguous on both sides are walked a segment at a time; the
    // one-element rows of a column transfer keep the plain element walk.
    const auto s = static_cast<std::int32_t>(esz);
    return d.src_inner_stride == s && d.dst_inner_stride == s && d.inner_count > 1
               ? walk<true>(d, at, esz, room)
               : walk<false>(d, at, esz, room);
  }

  template <bool kRows>
  std::uint32_t walk(const DmaDescriptor& d, Cursor& at, std::uint32_t esz,
                     std::uint32_t room) {
    std::uint32_t n = 0;
    while (n < room && at.o < d.outer_count) {
      if (at.i == d.inner_count) {
        at.i = 0;
        ++at.o;
        at.src += static_cast<arch::Addr>(d.src_outer_stride);
        at.dst += static_cast<arch::Addr>(d.dst_outer_stride);
        continue;
      }
      // A segment of a contiguous row that stays inside the 1 MB windows
      // of its first element lands in one run, as it would element by
      // element; one that would cross a window is walked one element at a
      // time.
      std::uint32_t k = 1;
      if constexpr (kRows) {
        const std::uint32_t seg = std::min(room - n, d.inner_count - at.i);
        const arch::Addr last = seg * esz - 1;
        if (((at.src ^ (at.src + last)) >> 20) == 0 && ((at.dst ^ (at.dst + last)) >> 20) == 0) {
          k = seg;
        }
      }
      // Coalesce elements that extend the previous run contiguously on
      // both sides into one functional copy. A run never crosses a 1 MB
      // address window: the window decides how an address resolves
      // (local alias vs. core vs. external), so crossing one could change
      // where bytes land relative to the element-at-a-time walk.
      Run* r = chunk_.empty() ? nullptr : &chunk_.back();
      if (r != nullptr && r->src + r->elems * esz == at.src &&
          r->dst + r->elems * esz == at.dst && ((r->src ^ (at.src + esz - 1)) >> 20) == 0 &&
          ((r->dst ^ (at.dst + esz - 1)) >> 20) == 0) {
        r->elems += k;
      } else {
        chunk_.push_back(Run{at.src, at.dst, k});
      }
      at.src += static_cast<arch::Addr>(d.src_inner_stride) * k;
      at.dst += static_cast<arch::Addr>(d.dst_inner_stride) * k;
      at.i += k;
      n += k;
    }
    return n;
  }

  struct Route {
    enum Kind { OnChip, ToExternal, FromExternal, Local } kind = Local;
    arch::CoreCoord mesh_src{};
    arch::CoreCoord mesh_dst{};
  };

  [[nodiscard]] Route classify(arch::Addr src, arch::Addr dst) const {
    const auto owner_of = [&](arch::Addr a) -> arch::CoreCoord {
      if (arch::AddressMap::is_local_alias(a)) return owner_;
      if (auto c = mem_->map().core_of(a)) return *c;
      return owner_;  // unreachable for valid descriptors
    };
    const bool src_ext = mem_->map().is_external(src);
    const bool dst_ext = mem_->map().is_external(dst);
    if (src_ext && dst_ext) throw std::logic_error("DMA external-to-external unsupported");
    Route r;
    if (dst_ext) {
      r.kind = Route::ToExternal;
    } else if (src_ext) {
      r.kind = Route::FromExternal;
    } else {
      r.mesh_src = owner_of(src);
      r.mesh_dst = owner_of(dst);
      r.kind = r.mesh_src == r.mesh_dst ? Route::Local : Route::OnChip;
    }
    return r;
  }

  using Run = mem::CopyRun;

  sim::Op<void> flush_chunk(std::uint32_t elems, std::uint32_t esz, Route route) {
    const std::uint32_t bytes = elems * esz;
    // The engine itself issues one transaction per element at 2.4 cycles
    // (coalescing is a host-side speedup; the modelled cost stays per
    // element, so completion cycles are unchanged).
    const auto engine_cycles = static_cast<sim::Cycles>(
        timing_->dma_cycles_per_txn * static_cast<double>(elems) + 0.5);
    const sim::Cycles t0 = engine_->now();
    sim::Cycles finish = t0 + engine_cycles;

    switch (route.kind) {
      case Route::Local:
        break;
      case Route::OnChip: {
        const sim::Cycles mesh_done =
            mesh_->reserve_path(route.mesh_src, route.mesh_dst, bytes, t0);
        finish = std::max(finish, mesh_done);
        break;
      }
      case Route::ToExternal:
        co_await elink_write_->txn(owner_, bytes);
        finish = std::max(finish, engine_->now());
        break;
      case Route::FromExternal:
        co_await elink_read_->txn(owner_, bytes);
        finish = std::max(finish, engine_->now());
        break;
    }
    if (model_bank_conflicts_ && route.kind != Route::ToExternal) {
      // The stream occupies the destination scratchpad bank(s) while it
      // drains; concurrent CPU accesses to those banks stall (section IV-B).
      const arch::CoreCoord dst_core =
          route.kind == Route::OnChip ? route.mesh_dst : owner_;
      const arch::Addr lo = arch::AddressMap::local_offset(chunk_.front().dst);
      const arch::Addr hi = arch::AddressMap::local_offset(
          chunk_.back().dst + static_cast<arch::Addr>(chunk_.back().elems - 1) * esz);
      mem_->local(dst_core).occupy_banks(std::min(lo, hi),
                                         (lo > hi ? lo - hi : hi - lo) + esz, finish);
    }
    if (finish > engine_->now()) co_await sim::delay(*engine_, finish - engine_->now());

    // Commit the data functionally at completion time, in one call (which
    // keeps the hardware's element order for overlapping runs).
    mem_->copy_runs(chunk_, esz, owner_);
    bytes_moved_ += bytes;
    if (trace::Tracer* const tr = inst_->tracer) {
      tr->dma_chunk(tr->dma_track(owner_, index_), bytes, engine_->now());
    }

    // With corruption faults armed, external transfers are CRC-checked end
    // to end and recommitted with exponential backoff on mismatch (the
    // off-chip path is the one with a wire to flip bits on; on-chip runs
    // stay unchecked, as on the real part).
    fault::FaultInjector* const faults = inst_->faults;
    if (faults != nullptr && faults->any_corruption() &&
        (route.kind == Route::ToExternal || route.kind == Route::FromExternal)) {
      const unsigned ekind = route.kind == Route::ToExternal ? 0u : 1u;
      noc::ELink* link = route.kind == Route::ToExternal ? elink_write_ : elink_read_;
      faults->corrupt_elink(ekind, chunk_.front().dst, chunk_.front().elems * esz,
                            owner_);
      for (unsigned attempt = 1; !chunk_crc_ok(esz); ++attempt) {
        if (attempt > kTransferRetries) {
          throw fault::TransferError(
              name_ + ": external DMA chunk failed CRC after " +
              std::to_string(kTransferRetries) + " retries");
        }
        faults->note_transfer_retry(owner_);
        co_await sim::delay(*engine_, kRetryBackoff << (attempt - 1));
        co_await link->txn(owner_, bytes);
        mem_->copy_runs(chunk_, esz, owner_);
        faults->corrupt_elink(ekind, chunk_.front().dst, chunk_.front().elems * esz,
                              owner_);
      }
    }
    chunk_.clear();
  }

  /// Chained CRC over the chunk's source runs vs. its committed destination
  /// runs.
  [[nodiscard]] bool chunk_crc_ok(std::uint32_t esz) {
    std::uint32_t src_crc = 0, dst_crc = 0;
    for (const Run& r : chunk_) {
      const auto n = static_cast<std::size_t>(r.elems) * esz;
      src_crc = fault::crc32(mem_->resolve(r.src, n, owner_), src_crc);
      dst_crc = fault::crc32(mem_->resolve(r.dst, n, owner_), dst_crc);
    }
    return src_crc == dst_crc;
  }

  arch::CoreCoord owner_;
  unsigned index_;
  std::string name_;
  const arch::TimingParams* timing_;
  bool model_bank_conflicts_ = false;
  sim::Engine* engine_;
  mem::MemorySystem* mem_;
  noc::MeshNetwork* mesh_;
  noc::ELink* elink_write_;
  noc::ELink* elink_read_;
  const fault::Instruments* inst_;
  sim::WaitQueue done_;
  std::vector<DmaDescriptor> chain_;
  std::vector<Run> chunk_;  // the chunk being gathered, reused across descriptors
  std::exception_ptr error_;  // the last chain's failure, cleared by start()
  bool busy_ = false;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace epi::dma
