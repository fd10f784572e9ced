#pragma once
// The full modelled Epiphany system: event engine, memory, eMesh, eLinks,
// and per-eCore resources (two DMA channels, two event timers).
//
// A Machine corresponds to what sits on the FMC daughter card in the paper:
// the E64G401 chip plus its shared-memory window. Host-side orchestration
// lives in epi::host on top of this.

#include <deque>
#include <memory>

#include "arch/coords.hpp"
#include "arch/timing.hpp"
#include "dma/channel.hpp"
#include "fault/injector.hpp"
#include "machine/reservation.hpp"
#include "mem/memory_system.hpp"
#include "noc/elink.hpp"
#include "noc/mesh.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace epi::machine {

/// One of the two per-core event timers (E_CTIMER_0/1). Real ctimers count
/// *down* from the set value; the paper's Listing 1 measures elapsed cycles
/// as set_value - get(). We reproduce that interface.
class CTimer {
public:
  static constexpr std::uint32_t kMax = 0xFFFFFFFFu;  // E_CTIMER_MAX

  explicit CTimer(const sim::Engine& engine) noexcept : engine_(&engine) {}

  void set(std::uint32_t value) noexcept {
    value_ = value;
    running_ = false;
  }
  void start() noexcept {
    started_at_ = engine_->now();
    running_ = true;
  }
  [[nodiscard]] std::uint32_t get() const noexcept {
    if (!running_) return value_;
    const sim::Cycles elapsed = engine_->now() - started_at_;
    return elapsed >= value_ ? 0 : value_ - static_cast<std::uint32_t>(elapsed);
  }
  void stop() noexcept {
    value_ = get();
    running_ = false;
  }
  /// Convenience: cycles elapsed since start() for a timer set to kMax.
  [[nodiscard]] sim::Cycles elapsed() const noexcept {
    return running_ ? engine_->now() - started_at_ : 0;
  }

private:
  const sim::Engine* engine_;
  std::uint32_t value_ = kMax;
  sim::Cycles started_at_ = 0;
  bool running_ = false;
};

class Machine {
public:
  explicit Machine(arch::MachineConfig cfg)
      : cfg_(cfg),
        mem_(cfg.dims, engine_),
        mesh_(cfg.dims, cfg_.timing, engine_, inst_),
        elink_write_(cfg.dims, cfg_.timing, engine_, cfg.timing.elink_write_overhead,
                     trace::ElinkKind::Write, inst_),
        elink_read_(cfg.dims, cfg_.timing, engine_, cfg.timing.elink_read_overhead,
                    trace::ElinkKind::Read, inst_),
        reservations_(cfg.dims) {
    for (unsigned i = 0; i < cfg.dims.core_count(); ++i) {
      cores_.emplace_back(cfg.dims.coord_of(i), *this);
    }
  }

  struct Core {
    Core(arch::CoreCoord c, Machine& m)
        : coord(c),
          dma{{c, 0, m.cfg_, m.engine_, m.mem_, m.mesh_, m.elink_write_, m.elink_read_,
               m.inst_},
              {c, 1, m.cfg_, m.engine_, m.mem_, m.mesh_, m.elink_write_, m.elink_read_,
               m.inst_}},
          ctimer{CTimer(m.engine_), CTimer(m.engine_)} {}
    arch::CoreCoord coord;
    dma::DmaChannel dma[2];
    CTimer ctimer[2];
  };

  [[nodiscard]] const arch::MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] arch::MeshDims dims() const noexcept { return cfg_.dims; }
  [[nodiscard]] const arch::TimingParams& timing() const noexcept { return cfg_.timing; }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] mem::MemorySystem& mem() noexcept { return mem_; }
  [[nodiscard]] noc::MeshNetwork& mesh() noexcept { return mesh_; }
  [[nodiscard]] noc::ELink& elink_write() noexcept { return elink_write_; }
  [[nodiscard]] noc::ELink& elink_read() noexcept { return elink_read_; }

  [[nodiscard]] Core& core(arch::CoreCoord c) { return cores_[cfg_.dims.index_of(c)]; }

  /// Exclusive workgroup ownership of cores (host::Workgroup RAII holds a
  /// reservation for its rectangle; the serving runtime relies on this to
  /// keep concurrently resident jobs from clobbering each other).
  [[nodiscard]] CoreReservations& reservations() noexcept { return reservations_; }

  // ---- counters ------------------------------------------------------------
  /// The machine's one counter registry. The tracer records into it, and the
  /// scheduler and shmem groups define their counters here, so a counter
  /// keeps counting whether a tracer is armed before, after or never.
  [[nodiscard]] trace::Counters& counters() noexcept { return counters_; }
  /// Add `delta` to counter `id`; with a tracer armed, also record a sample.
  void count(trace::Counters::Id id, double delta) {
    counters_.add(id, delta);
    if (tracer_) tracer_->record(id, engine_.now());
  }
  /// Set counter `id` to `value`; with a tracer armed, also record a sample
  /// at cycle `at`. Levels -- queue depth, cores busy -- move both ways, so
  /// they cannot go through count().
  void set_count(trace::Counters::Id id, double value, sim::Cycles at) {
    counters_.set(id, value);
    if (tracer_) tracer_->record(id, at);
  }

  // ---- tracing -------------------------------------------------------------
  /// Arm an epi-trace Tracer: it observes memory traffic as a hook, and the
  /// mesh, both eLinks, every DMA channel, the fault injector and the core
  /// phase spans report to it through the machine's Instruments. Arming
  /// changes no code path of the run itself. Idempotent; composes with any
  /// other memory hook. Returns the (owned) tracer.
  trace::Tracer& enable_tracing() {
    if (!tracer_) {
      tracer_ = std::make_unique<trace::Tracer>(cfg_.dims, counters_);
      mem_.add_hook(tracer_.get());
      inst_.tracer = tracer_.get();
    }
    return *tracer_;
  }
  void disable_tracing() noexcept {
    if (!tracer_) return;
    mem_.remove_hook(tracer_.get());
    inst_.tracer = nullptr;
    tracer_.reset();
  }
  [[nodiscard]] trace::Tracer* tracer() noexcept { return tracer_.get(); }

  // ---- fault injection ------------------------------------------------------
  /// Arm a fault plan across every layer (core timed ops, mesh routing, both
  /// eLinks, DMA transfer checking, memory-write corruption). Idempotent per
  /// machine: the first call wins. An *empty* plan is valid and guaranteed
  /// side-effect-free -- every event ordering stays bit-identical to an
  /// uninstrumented run (determinism tests pin this).
  fault::FaultInjector& enable_faults(fault::FaultPlan plan) {
    if (!faults_) {
      faults_ = std::make_unique<fault::FaultInjector>(std::move(plan), engine_, mem_,
                                                       cfg_.dims, inst_);
      mem_.add_hook(faults_.get());
      inst_.faults = faults_.get();
    }
    return *faults_;
  }
  [[nodiscard]] fault::FaultInjector* faults() noexcept { return faults_.get(); }

private:
  arch::MachineConfig cfg_;
  sim::Engine engine_;
  trace::Counters counters_;  // outlives tracer_, which records into it
  fault::Instruments inst_;   // read by mesh_, the eLinks and every DMA channel
  mem::MemorySystem mem_;
  noc::MeshNetwork mesh_;
  noc::ELink elink_write_;
  noc::ELink elink_read_;
  CoreReservations reservations_;
  std::deque<Core> cores_;  // deque: Core is immovable (owns DmaChannels)
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<fault::FaultInjector> faults_;
};

}  // namespace epi::machine
