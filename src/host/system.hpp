#pragma once
// Host-side programming interface (paper section III, "steps required to
// execute a program"): the ARM host opens a workgroup, loads a kernel onto
// each eCore, signals start, exchanges data through core memory or the
// shared window, and waits for completion.
//
// Host actions happen *between* simulation events and are not charged device
// cycles -- mirroring the paper's measurement methodology, which excludes
// host-side setup (e.g. "does not include the time taken to transfer the
// initial operand matrices") from device GFLOPS.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/address_map.hpp"
#include "arch/timing.hpp"
#include "device/core_ctx.hpp"
#include "machine/machine.hpp"
#include "sim/task.hpp"

namespace epi::host {

class System;

/// A rectangular group of eCores running one kernel each (e_open/e_load/
/// e_start in the eSDK). A Workgroup owns its cores exclusively: the
/// constructor reserves the rectangle in the machine's reservation table
/// (throwing if it is empty, leaves the mesh, or holds a core of a live
/// workgroup) and the destructor releases it, so double-opened cores are
/// rejected instead of silently clobbering each other.
///
/// A Workgroup never moves: running kernels hold pointers into its CoreCtx
/// objects and completion counters. A host that keeps groups in a container
/// holds them by pointer.
class Workgroup {
public:
  Workgroup(machine::Machine& m, device::GroupInfo info)
      : m_(&m),
        info_(info),
        ticket_(m.reservations().acquire(info.origin, info.rows, info.cols)) {
    ctxs_.reserve(info.size());
    for (unsigned r = 0; r < info.rows; ++r) {
      for (unsigned c = 0; c < info.cols; ++c) {
        ctxs_.emplace_back(m, arch::CoreCoord{info.origin.row + r, info.origin.col + c},
                           info);
      }
    }
  }
  Workgroup(const Workgroup&) = delete;
  Workgroup& operator=(const Workgroup&) = delete;
  ~Workgroup() { m_->reservations().release(info_.origin, info_.rows, info_.cols, ticket_); }

  [[nodiscard]] const device::GroupInfo& info() const noexcept { return info_; }
  [[nodiscard]] unsigned size() const noexcept { return info_.size(); }
  [[nodiscard]] device::CoreCtx& ctx(unsigned group_row, unsigned group_col) {
    if (!info_.contains_group_coord(group_row, group_col)) {
      throw std::out_of_range("group coordinate outside workgroup");
    }
    return ctxs_[group_row * info_.cols + group_col];
  }

  /// Load the same kernel onto every core of the group.
  void load(device::KernelFn kernel) { kernel_ = std::move(kernel); }

  /// Label prepended to this group's process names ("job 12 core (2,3)") so
  /// DeadlockError and traces attribute hangs to a specific serving job.
  void set_label(std::string label) { label_ = std::move(label); }

  /// Callback run once per start(), when the last kernel of the group
  /// retires (normally or by exception): lets a host loop that pumps the
  /// engine itself learn of completion without polling complete() every event.
  /// It runs in a kernel's root process, so it must not throw.
  void on_complete(std::function<void()> fn) { on_complete_ = std::move(fn); }

  /// Signal all cores to begin executing the loaded kernel. Each core's
  /// status word is cleared, then set (with a watched store) on completion.
  /// Throws std::logic_error while the previous start's kernels still run.
  void start() {
    if (!kernel_) throw std::logic_error("Workgroup::start without a loaded kernel");
    if (started_ && !complete()) {
      throw std::logic_error("Workgroup::start while its kernels are still running");
    }
    errors_.assign(ctxs_.size(), nullptr);
    started_ = true;
    finished_ = 0;
    failed_ = 0;
    for (auto& ctx : ctxs_) {
      m_->mem().write_value<std::uint32_t>(
          ctx.my_global(device::CoreCtx::kStatusOffset), 0, ctx.coord());
      std::string name = label_.empty() ? "core " + arch::to_string(ctx.coord())
                                        : label_ + " core " + arch::to_string(ctx.coord());
      sim::spawn(m_->engine(), run_kernel(ctx), 0, std::move(name));
    }
  }

  /// O(1) completion check from the kernel-wrapper counters (the scheduler
  /// polls this once per engine event).
  [[nodiscard]] bool complete() const noexcept {
    return started_ && finished_ + failed_ >= ctxs_.size();
  }
  [[nodiscard]] bool any_failed() const noexcept { return failed_ > 0; }
  /// Cycle at which the last kernel of the group finished (valid once
  /// complete(); tracked by the kernel wrappers so an external driver that
  /// pumps the engine itself still gets exact per-job service cycles).
  [[nodiscard]] sim::Cycles finish_time() const noexcept { return finish_time_; }
  /// Propagate the first kernel exception (lowest group index), if any
  /// kernel failed.
  void rethrow_errors() const {
    for (const auto& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Drive the simulation until every core in the group has finished.
  /// Propagates the first kernel exception encountered. Throws
  /// std::logic_error before the first start().
  ///
  /// The loop runs once per simulation event, so completion is tracked with
  /// counters bumped by the kernel wrappers themselves, and the error scan
  /// only happens once a failure counter says there is an error to find.
  void wait() {
    if (!started_) throw std::logic_error("Workgroup::wait before start");
    while (finished_ + failed_ < ctxs_.size()) {
      if (failed_ > 0) rethrow_errors();
      if (!m_->engine().step()) throw m_->engine().deadlock_error();
    }
    rethrow_errors();
    // Waiting for kernel completion is the host's synchronisation point:
    // result readback afterwards is ordered, not a data race. The host
    // issues memory traffic as (0,0).
    for (auto* h : m_->mem().hooks()) h->on_sync({0, 0}, m_->engine().now());
  }

  /// start() + wait(), returning elapsed device cycles.
  sim::Cycles run() {
    const sim::Cycles t0 = m_->engine().now();
    start();
    wait();
    return m_->engine().now() - t0;
  }

private:
  /// The root of one core's process: it catches everything, keeping the
  /// error in the core's errors_ slot for rethrow_errors().
  sim::Op<void> run_kernel(device::CoreCtx& ctx) {
    try {
      co_await kernel_(ctx);
      // Completion signal: a real kernel's final act is a status store the
      // host (or sibling cores) can observe.
      m_->mem().write_value<std::uint32_t>(ctx.my_global(device::CoreCtx::kStatusOffset), 1,
                                           ctx.coord());
      ++finished_;
    } catch (...) {
      errors_[ctx.group_index()] = std::current_exception();
      ++failed_;
    }
    retire_if_last();
  }

  void retire_if_last() {
    if (finished_ + failed_ != ctxs_.size()) return;
    finish_time_ = m_->engine().now();
    if (on_complete_) on_complete_();
  }

  machine::Machine* m_;
  device::GroupInfo info_;
  std::uint32_t ticket_;  // core reservation
  std::vector<device::CoreCtx> ctxs_;  // row-major; sized once, never grows
  device::KernelFn kernel_;
  std::vector<std::exception_ptr> errors_;  // per core, ctxs_ order; see run_kernel
  bool started_ = false;      // start() has run at least once
  std::size_t finished_ = 0;  // kernels completed normally since start()
  std::size_t failed_ = 0;    // kernels that ended with an exception
  sim::Cycles finish_time_ = 0;  // cycle the last kernel retired
  std::string label_;            // process-name prefix (serving job id)
  std::function<void()> on_complete_;  // see on_complete()
};

class System {
public:
  explicit System(arch::MachineConfig cfg = {}) : machine_(cfg) {}

  [[nodiscard]] machine::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return machine_.engine(); }
  [[nodiscard]] const arch::TimingParams& timing() const noexcept { return machine_.timing(); }

  /// e_open: place a rows x cols workgroup with its top-left core at
  /// (origin_row, origin_col). Throws std::out_of_range if it is empty or
  /// does not fit on the mesh.
  [[nodiscard]] Workgroup open(unsigned origin_row, unsigned origin_col, unsigned rows,
                               unsigned cols) {
    return Workgroup(machine_, {{origin_row, origin_col}, rows, cols});
  }

  // ---- shared external memory (allocator over the 32 MB window) ----
  // A bump allocator while the tail has room. Ranges returned by shm_free are
  // reused, first fit by address, only for a request the tail cannot fit, so
  // every address matches the plain bump allocator until the window first
  // fills. A request no free range can hold throws std::bad_alloc; align 0
  // throws std::invalid_argument.
  [[nodiscard]] arch::Addr shm_alloc(std::size_t bytes, std::size_t align = 8) {
    if (align == 0) throw std::invalid_argument("shm_alloc: align must be nonzero");
    const auto& map = machine_.mem().map();
    const std::size_t window = map.external_bytes;
    const std::size_t brk = align_up(shm_brk_, align);
    if (brk <= window) {
      shm_brk_ = brk;
      if (bytes <= window - brk) {
        shm_brk_ += bytes;
        return map.external_base + static_cast<arch::Addr>(brk);
      }
    }
    for (auto it = shm_holes_.begin(); it != shm_holes_.end(); ++it) {
      const auto [start, len] = *it;
      const std::size_t at = align_up(start, align);
      if (at - start > len || bytes > len - (at - start)) continue;
      it = shm_holes_.erase(it);
      if (at + bytes < start + len) {
        it = shm_holes_.insert(it, {at + bytes, start + len - at - bytes});
      }
      if (at > start) shm_holes_.insert(it, {start, at - start});
      return map.external_base + static_cast<arch::Addr>(at);
    }
    throw std::bad_alloc();
  }
  /// Give back [addr, addr + bytes) of an earlier shm_alloc; adjacent free
  /// ranges merge and a zero-byte range is a no-op. A range outside the
  /// allocated window, or one overlapping a range already freed, throws
  /// std::invalid_argument.
  void shm_free(arch::Addr addr, std::size_t bytes) {
    const auto& map = machine_.mem().map();
    const std::size_t off = addr - map.external_base;
    if (addr < map.external_base || off > shm_brk_ || bytes > shm_brk_ - off) {
      throw std::invalid_argument("shm_free: range outside the allocated window");
    }
    if (bytes == 0) return;
    const auto next = std::lower_bound(
        shm_holes_.begin(), shm_holes_.end(), off,
        [](const auto& h, std::size_t o) { return h.first < o; });
    const auto prev = next == shm_holes_.begin() ? shm_holes_.end() : std::prev(next);
    const std::size_t prev_end = prev == shm_holes_.end() ? 0 : prev->first + prev->second;
    if (prev_end > off || (next != shm_holes_.end() && next->first < off + bytes)) {
      throw std::invalid_argument("shm_free: range already free");
    }
    const bool joins_prev = prev != shm_holes_.end() && prev_end == off;
    const bool joins_next = next != shm_holes_.end() && next->first == off + bytes;
    if (joins_prev && joins_next) {
      prev->second += bytes + next->second;
      shm_holes_.erase(next);
    } else if (joins_prev) {
      prev->second += bytes;
    } else if (joins_next) {
      *next = {off, bytes + next->second};
    } else {
      shm_holes_.insert(next, {off, bytes});
    }
  }
  void shm_reset() noexcept {
    shm_brk_ = 0;
    shm_holes_.clear();
  }

  // ---- host <-> device data movement (functional; host time untimed) ----
  void write(arch::Addr global, std::span<const std::byte> src) {
    machine_.mem().write_bytes(global, src, {0, 0});
  }
  void read(arch::Addr global, std::span<std::byte> dst) {
    machine_.mem().read_bytes(global, dst, {0, 0});
  }
  template <typename T>
  void write_array(arch::Addr global, std::span<const T> src) {
    write(global, std::as_bytes(src));
  }
  template <typename T>
  void read_array(arch::Addr global, std::span<T> dst) {
    read(global, std::as_writable_bytes(dst));
  }

  [[nodiscard]] double seconds(sim::Cycles c) const noexcept { return timing().seconds(c); }
  [[nodiscard]] double gflops(double flops, sim::Cycles c) const noexcept {
    return timing().gflops(flops, c);
  }

private:
  /// The least multiple of `align` (nonzero) not below `v`, or SIZE_MAX if
  /// that does not fit in a size_t.
  [[nodiscard]] static std::size_t align_up(std::size_t v, std::size_t align) noexcept {
    const std::size_t pad = (align - v % align) % align;
    return pad > SIZE_MAX - v ? SIZE_MAX : v + pad;
  }

  machine::Machine machine_;
  std::size_t shm_brk_ = 0;
  // Freed ranges as (offset, bytes), ascending and never adjacent. A sorted
  // vector, not a map: a serve frees a buffer per job, and a node allocation
  // per free fragments the heap the decision log grows in.
  std::vector<std::pair<std::size_t, std::size_t>> shm_holes_;
};

}  // namespace epi::host
