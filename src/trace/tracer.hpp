#pragma once
// epi::trace -- structured event tracing for the whole machine model.
//
// The Tracer is a deterministic, append-only sink of typed events stamped
// with engine Cycles. Every layer of the simulator reports into it:
//
//   * eCores      phase begin/end spans (compute / comm / dma-wait / sync),
//                 emitted by device::CoreCtx around its timed operations and
//                 by kernels via explicit phase scopes;
//   * eMesh       per-directed-link burst occupancy (acquire/release) from
//                 MeshNetwork::reserve_path;
//   * eLink       per-transaction grant spans with queueing-stall cycles --
//                 the raw material of the Tables II/III starvation pictures;
//   * DMA         descriptor-chain spans and per-chunk commit instants;
//   * memory      per-core read/write byte counters via mem::MemoryHook
//                 (the Tracer composes with the sanitizer hook).
//
// The counters live in the machine's one registry (machine::Machine owns
// it); the Tracer records into it by reference, so a counter keeps its id
// and value whether or not a tracer is armed, and arming one only adds the
// samples from then on.
//
// Because the engine is deterministic, the event stream (and every export
// derived from it) is bit-reproducible run over run; tests assert this.
// Counter samples are coalesced per (counter, cycle) so high-frequency
// functional traffic (per-element DMA commits) stays cheap to record.
//
// Exporters live in trace/export.hpp (Perfetto/Chrome JSON, counters CSV,
// terminal summary); the cycle-attribution profiler in trace/profile.hpp
// folds core-track spans into per-core breakdowns.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arch/coords.hpp"
#include "mem/hook.hpp"
#include "sim/engine.hpp"
#include "trace/counters.hpp"

namespace epi::trace {

/// Cycle-attribution category of a core-track span.
enum class Phase : std::uint8_t { Compute, Comm, DmaWait, Sync, Other };

[[nodiscard]] constexpr const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::Compute: return "compute";
    case Phase::Comm: return "comm";
    case Phase::DmaWait: return "dma-wait";
    case Phase::Sync: return "sync";
    case Phase::Other: return "other";
  }
  return "?";
}

/// Which off-chip network an eLink event belongs to.
enum class ElinkKind : std::uint8_t { Write = 0, Read = 1 };

[[nodiscard]] constexpr const char* to_string(ElinkKind k) noexcept {
  return k == ElinkKind::Write ? "write" : "read";
}

/// One timeline row in the exported trace (a core, a DMA channel, an eLink
/// direction, or a mesh link).
struct Track {
  std::string name;
  bool is_core = false;
  arch::CoreCoord coord{};  // meaningful when is_core
};

/// A single trace record. Begin/End bracket a span on `track`; Instant is a
/// point event; Counter is a sample of counter id `track` at value `value`.
struct Event {
  enum class Type : std::uint8_t { Begin, End, Instant, Counter };
  Type type = Type::Instant;
  Phase phase = Phase::Other;
  std::uint32_t track = 0;  // track index, or counter id for Type::Counter
  std::uint32_t name = 0;   // interned string (Begin/Instant)
  sim::Cycles t = 0;
  double value = 0.0;                   // Counter sample value
  std::uint32_t arg_name[2] = {0, 0};   // interned arg labels; 0 = absent
  std::uint64_t arg[2] = {0, 0};
};

class Tracer final : public mem::MemoryHook {
public:
  /// Records into `counters`, which must outlive the tracer. The two DMA
  /// tracks of every core come first, in core order (dma_track()).
  Tracer(arch::MeshDims dims, Counters& counters)
      : dims_(dims),
        counters_(counters),
        core_tracks_(dims.core_count(), kNoTrack),
        link_tracks_(static_cast<std::size_t>(dims.core_count()) * 4, kNoTrack),
        link_bytes_(static_cast<std::size_t>(dims.core_count()) * 4, Counters::kNone),
        mem_read_(dims.core_count(), Counters::kNone),
        mem_write_(dims.core_count(), Counters::kNone),
        elink_core_bytes_{std::vector<Counters::Id>(dims.core_count(), Counters::kNone),
                          std::vector<Counters::Id>(dims.core_count(), Counters::kNone)},
        flops_core_(dims.core_count(), Counters::kNone) {
    intern("");  // id 0 = absent
    for (unsigned i = 0; i < dims.core_count(); ++i) {
      for (unsigned chan = 0; chan < 2; ++chan) {
        add_track("dma" + std::to_string(chan) + "@" + arch::to_string(dims.coord_of(i)));
      }
    }
  }

  [[nodiscard]] arch::MeshDims dims() const noexcept { return dims_; }
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<Track>& tracks() const noexcept { return tracks_; }
  [[nodiscard]] const std::vector<std::string>& strings() const noexcept { return strings_; }
  [[nodiscard]] const std::string& str(std::uint32_t id) const { return strings_.at(id); }
  [[nodiscard]] Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // ---- generic recording -------------------------------------------------

  std::uint32_t intern(std::string_view s) {
    auto it = intern_.find(std::string(s));
    if (it != intern_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    intern_.emplace(strings_.back(), id);
    return id;
  }

  std::uint32_t add_track(std::string name, bool is_core = false,
                          arch::CoreCoord coord = {}) {
    tracks_.push_back(Track{std::move(name), is_core, coord});
    return static_cast<std::uint32_t>(tracks_.size() - 1);
  }

  void begin(std::uint32_t track, Phase p, std::string_view name, sim::Cycles t) {
    Event e;
    e.type = Event::Type::Begin;
    e.phase = p;
    e.track = track;
    e.name = intern(name);
    e.t = t;
    events_.push_back(e);
  }
  void end(std::uint32_t track, sim::Cycles t) {
    Event e;
    e.type = Event::Type::End;
    e.track = track;
    e.t = t;
    events_.push_back(e);
  }
  void instant(std::uint32_t track, std::string_view name, sim::Cycles t,
               std::string_view arg0_name = {}, std::uint64_t arg0 = 0) {
    Event e;
    e.type = Event::Type::Instant;
    e.track = track;
    e.name = intern(name);
    e.t = t;
    if (!arg0_name.empty()) {
      e.arg_name[0] = intern(arg0_name);
      e.arg[0] = arg0;
    }
    events_.push_back(e);
  }

  /// Update counter `id` and record a sample.
  void count(Counters::Id id, sim::Cycles t, double delta) {
    counters_.add(id, delta);
    record(id, t);
  }

  /// Record a Counter sample of `id`'s current value at `t`. Samples landing
  /// on the same cycle as the counter's previous sample are coalesced in
  /// place, which keeps per-element functional traffic (DMA chunk commits)
  /// cheap.
  void record(Counters::Id id, sim::Cycles t) {
    if (id >= last_sample_.size()) last_sample_.resize(id + 1, kNoEvent);
    const std::uint32_t last = last_sample_[id];
    if (last != kNoEvent && events_[last].t == t &&
        events_[last].type == Event::Type::Counter && events_[last].track == id) {
      events_[last].value = counters_.value(id);
      return;
    }
    last_sample_[id] = static_cast<std::uint32_t>(events_.size());
    Event e;
    e.type = Event::Type::Counter;
    e.track = id;
    e.t = t;
    e.value = counters_.value(id);
    events_.push_back(e);
  }

  // ---- eCore phase spans -------------------------------------------------

  void core_begin(arch::CoreCoord c, Phase p, std::string_view name, sim::Cycles t) {
    begin(core_track(c), p, name, t);
  }
  void core_end(arch::CoreCoord c, sim::Cycles t) { end(core_track(c), t); }
  /// A span whose extent is known at issue time (a compute Delay).
  void core_span(arch::CoreCoord c, Phase p, std::string_view name, sim::Cycles t0,
                 sim::Cycles t1) {
    const std::uint32_t tr = core_track(c);
    begin(tr, p, name, t0);
    end(tr, t1);
  }
  /// Kernel-reported retired flops (per-core + machine-total counters).
  void count_flops(arch::CoreCoord c, sim::Cycles t, double flops) {
    if (flops_total_ == Counters::kNone) {
      flops_total_ = counters_.define("flops", Counters::Kind::Monotonic);
    }
    count(flops_total_, t, flops);
    auto& id = flops_core_[dims_.index_of(c)];
    if (id == Counters::kNone) {
      id = counters_.define("flops@" + arch::to_string(c), Counters::Kind::Monotonic);
    }
    count(id, t, flops);
  }

  [[nodiscard]] std::uint32_t core_track(arch::CoreCoord c) {
    auto& tr = core_tracks_[dims_.index_of(c)];
    if (tr == kNoTrack) tr = add_track("core " + arch::to_string(c), true, c);
    return tr;
  }

  // ---- DMA ----------------------------------------------------------------

  /// Channel `chan` of core `c`: the constructor made these tracks first.
  [[nodiscard]] std::uint32_t dma_track(arch::CoreCoord c, unsigned chan) const {
    return dims_.index_of(c) * 2 + chan;
  }

  /// A committed DMA chunk: instant on the channel track + byte counters.
  void dma_chunk(std::uint32_t track, std::uint32_t bytes, sim::Cycles t) {
    instant(track, "chunk", t, "bytes", bytes);
    if (dma_bytes_ == Counters::kNone) {
      dma_bytes_ = counters_.define("dma.bytes", Counters::Kind::Monotonic);
    }
    count(dma_bytes_, t, bytes);
  }

  // ---- faults ---------------------------------------------------------------

  /// The track of injected-fault instants, made at the first injection.
  [[nodiscard]] std::uint32_t fault_track() {
    if (fault_track_ == kNoTrack) fault_track_ = add_track("faults");
    return fault_track_;
  }

  // ---- eLink ---------------------------------------------------------------

  /// One granted eLink transaction: a span on the direction's track over the
  /// link-occupancy window, stamped with the requester and its queueing
  /// stall. Feeds the grant/stall counters behind the Tables II/III shapes.
  void elink_txn(ElinkKind k, arch::CoreCoord c, std::uint32_t bytes,
                 sim::Cycles enqueued, sim::Cycles start, sim::Cycles done) {
    const auto ki = static_cast<unsigned>(k);
    const std::uint32_t tr = elink_track(k);
    Event e;
    e.type = Event::Type::Begin;
    e.phase = Phase::Comm;
    e.track = tr;
    e.name = intern(arch::to_string(c));
    e.t = start;
    e.arg_name[0] = intern("bytes");
    e.arg[0] = bytes;
    e.arg_name[1] = intern("stall_cycles");
    e.arg[1] = start - enqueued;
    events_.push_back(e);
    end(tr, done);

    if (elink_bytes_[ki] == Counters::kNone) {
      const std::string base = std::string("elink.") + to_string(k);
      elink_bytes_[ki] = counters_.define(base + ".bytes", Counters::Kind::Monotonic);
      elink_stall_[ki] =
          counters_.define(base + ".stall_cycles", Counters::Kind::Monotonic);
    }
    count(elink_bytes_[ki], done, bytes);
    count(elink_stall_[ki], start, static_cast<double>(start - enqueued));
    auto& cid = elink_core_bytes_[ki][dims_.index_of(c)];
    if (cid == Counters::kNone) {
      cid = counters_.define(std::string("elink.") + to_string(k) + ".bytes@" +
                                 arch::to_string(c),
                             Counters::Kind::Monotonic);
    }
    count(cid, done, bytes);
  }

  [[nodiscard]] std::uint32_t elink_track(ElinkKind k) {
    auto& tr = elink_tracks_[static_cast<unsigned>(k)];
    if (tr == kNoTrack) tr = add_track(std::string("eLink ") + to_string(k));
    return tr;
  }

  // ---- eMesh ----------------------------------------------------------------

  /// A burst occupying directed link (router, dir) for [start, done): a span
  /// on the link's track plus per-link and machine-total byte counters.
  void mesh_link(arch::CoreCoord router, arch::Dir d, std::uint32_t bytes,
                 sim::Cycles start, sim::Cycles done) {
    const std::size_t li =
        static_cast<std::size_t>(dims_.index_of(router)) * 4 + static_cast<unsigned>(d);
    auto& tr = link_tracks_[li];
    if (tr == kNoTrack) {
      tr = add_track("mesh " + arch::to_string(router) + "." + arch::to_string(d));
    }
    Event e;
    e.type = Event::Type::Begin;
    e.phase = Phase::Comm;
    e.track = tr;
    e.name = intern("burst");
    e.t = start;
    e.arg_name[0] = intern("bytes");
    e.arg[0] = bytes;
    events_.push_back(e);
    end(tr, done);

    if (mesh_bytes_ == Counters::kNone) {
      mesh_bytes_ = counters_.define("mesh.bytes", Counters::Kind::Monotonic);
    }
    count(mesh_bytes_, done, bytes);
    auto& cid = link_bytes_[li];
    if (cid == Counters::kNone) {
      cid = counters_.define(
          "mesh.bytes@" + arch::to_string(router) + "." + arch::to_string(d),
          Counters::Kind::Monotonic);
    }
    count(cid, done, bytes);
  }

  // ---- mem::MemoryHook (functional traffic counters) -----------------------
  // The host issues traffic as core (0,0); its preloads land in that core's
  // counters (documented model quirk).

  void on_write(arch::Addr, std::size_t n, arch::CoreCoord issuer,
                sim::Cycles now) override {
    count(mem_counter(mem_write_, "mem.write.bytes@", issuer), now,
          static_cast<double>(n));
  }
  void on_read(arch::Addr, std::size_t n, arch::CoreCoord issuer,
               sim::Cycles now) override {
    count(mem_counter(mem_read_, "mem.read.bytes@", issuer), now,
          static_cast<double>(n));
  }
  void on_sync(arch::CoreCoord, sim::Cycles now) override {
    if (sync_acquires_ == Counters::kNone) {
      sync_acquires_ = counters_.define("sync.acquires", Counters::Kind::Monotonic);
    }
    count(sync_acquires_, now, 1.0);
  }

private:
  static constexpr std::uint32_t kNoTrack = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};

  Counters::Id mem_counter(std::vector<Counters::Id>& ids, const char* prefix,
                           arch::CoreCoord c) {
    auto& id = ids[dims_.index_of(c)];
    if (id == Counters::kNone) {
      id = counters_.define(prefix + arch::to_string(c), Counters::Kind::Monotonic);
    }
    return id;
  }

  arch::MeshDims dims_;
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> intern_;
  Counters& counters_;
  std::vector<std::uint32_t> last_sample_;  // counter id -> last sample event

  // Lazily-created tracks and counters (created in first-use order, which is
  // deterministic because the engine is).
  std::vector<std::uint32_t> core_tracks_;
  std::vector<std::uint32_t> link_tracks_;
  std::uint32_t elink_tracks_[2] = {kNoTrack, kNoTrack};
  std::uint32_t fault_track_ = kNoTrack;
  std::vector<Counters::Id> link_bytes_;
  std::vector<Counters::Id> mem_read_;
  std::vector<Counters::Id> mem_write_;
  std::vector<Counters::Id> elink_core_bytes_[2];
  std::vector<Counters::Id> flops_core_;
  Counters::Id elink_bytes_[2] = {Counters::kNone, Counters::kNone};
  Counters::Id elink_stall_[2] = {Counters::kNone, Counters::kNone};
  Counters::Id mesh_bytes_ = Counters::kNone;
  Counters::Id dma_bytes_ = Counters::kNone;
  Counters::Id flops_total_ = Counters::kNone;
  Counters::Id sync_acquires_ = Counters::kNone;
};

}  // namespace epi::trace
