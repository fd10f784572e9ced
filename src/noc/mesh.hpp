#pragma once
// eMesh on-chip network model (paper section II).
//
// The real eMesh has three physically separate 2D mesh networks: an on-chip
// write network, an off-chip write network (xMesh) and a read-request
// network. On-chip traffic is modelled here with dimension-ordered (XY)
// routing and per-directed-link occupancy -- a wormhole approximation that
// captures bandwidth sharing without flit-level simulation. Off-chip traffic
// is handled by the ELink arbiter (elink.hpp) and does not contend with
// on-chip writes, mirroring the separate physical networks.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/coords.hpp"
#include "arch/timing.hpp"
#include "fault/injector.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"

namespace epi::noc {

class MeshNetwork {
public:
  /// `inst` is read on every burst and must outlive the network. With a
  /// tracer armed, each reserved burst emits a per-directed-link occupancy
  /// span plus per-link byte counters. With a fault injector armed, routing
  /// only changes when the plan actually fails a mesh link
  /// (any_link_faults()); otherwise every burst takes the byte-identical
  /// original path, fast paths included.
  MeshNetwork(arch::MeshDims dims, const arch::TimingParams& timing, sim::Engine& engine,
              const fault::Instruments& inst)
      : dims_(dims),
        timing_(&timing),
        engine_(&engine),
        inst_(&inst),
        // One occupancy slot per directed link: 4 directions per router.
        link_free_(static_cast<std::size_t>(dims.core_count()) * 4, 0) {}

  [[nodiscard]] arch::MeshDims dims() const noexcept { return dims_; }

  /// Cycles charged to a core that copies `words` 32-bit values into a
  /// remote core's memory with CPU load/store pairs (Listing 1 style).
  /// Calibrated against Table I: 6.67 cycles/word adjacent, +0.067/hop.
  [[nodiscard]] sim::Cycles direct_copy_cycles(arch::CoreCoord src, arch::CoreCoord dst,
                                               std::size_t words) const noexcept {
    const unsigned hops = std::max(1u, arch::manhattan_distance(src, dst));
    const double per_word = timing_->direct_write_cycles_per_word +
                            timing_->direct_write_cycles_per_word_per_hop * (hops - 1);
    return static_cast<sim::Cycles>(per_word * static_cast<double>(words) + 0.5);
  }

  /// Round-trip cycles for a CPU remote word load (read-request network).
  [[nodiscard]] sim::Cycles remote_load_cycles(arch::CoreCoord src,
                                               arch::CoreCoord dst) const noexcept {
    const unsigned hops = arch::manhattan_distance(src, dst);
    return timing_->remote_load_base_cycles +
           static_cast<sim::Cycles>(timing_->remote_load_cycles_per_hop * hops + 0.5);
  }

  /// Reserve the XY path for a `bytes`-long burst starting no earlier than
  /// `earliest`; returns the completion cycle. Bursts on shared links
  /// serialise (wormhole head-of-line approximation), which is what makes
  /// simultaneous DMA streams share bandwidth.
  sim::Cycles reserve_path(arch::CoreCoord src, arch::CoreCoord dst, std::size_t bytes,
                           sim::Cycles earliest) {
    if (src == dst) return earliest;  // local copy: no mesh traversal
    const sim::Cycles occupancy = std::max<sim::Cycles>(
        1, static_cast<sim::Cycles>(static_cast<double>(bytes) / timing_->link_bytes_per_cycle + 0.5));

    if (inst_->faults != nullptr && inst_->faults->any_link_faults()) {
      return reserve_path_degraded(src, dst, bytes, earliest, occupancy);
    }

    // Single-hop fast path: neighbouring cores (the dominant stencil-halo
    // case) reserve exactly one directed link, so the path vectors are
    // skipped entirely. Timing and trace output match the general path.
    if (arch::manhattan_distance(src, dst) == 1) {
      const arch::Dir d = src.col != dst.col
                              ? (src.col < dst.col ? arch::Dir::East : arch::Dir::West)
                              : (src.row < dst.row ? arch::Dir::South : arch::Dir::North);
      const std::size_t li = link_index(src, d);
      const sim::Cycles start = std::max(earliest, link_free_[li]);
      link_free_[li] = start + occupancy;
      if (trace::Tracer* const tr = inst_->tracer) {
        tr->mesh_link(src, d, static_cast<std::uint32_t>(bytes), start, start + occupancy);
      }
      return start + occupancy +
             static_cast<sim::Cycles>(timing_->mesh_hop_cycles * 1.0 + 0.5);
    }

    // The XY route: column-first, then row, matching eMesh
    // dimension-ordered routing.
    build_path(src, dst, /*rows_first=*/false);
    sim::Cycles start = earliest;
    for (auto li : path_scratch_) start = std::max(start, link_free_[li]);
    for (auto li : path_scratch_) link_free_[li] = start + occupancy;
    trace_path(bytes, start, occupancy);

    const auto hops = static_cast<double>(path_scratch_.size());
    return start + occupancy +
           static_cast<sim::Cycles>(timing_->mesh_hop_cycles * hops + 0.5);
  }

private:
  [[nodiscard]] std::size_t link_index(arch::CoreCoord c, arch::Dir d) const noexcept {
    return static_cast<std::size_t>(dims_.index_of(c)) * 4 + static_cast<unsigned>(d);
  }

  /// Collect the directed links of a dimension-ordered route into
  /// path_scratch_ (and, while tracing, their (router, dir) pairs into
  /// hop_scratch_): XY (columns first, the hardware order) or the YX
  /// fallback used to steer around a failed link.
  void build_path(arch::CoreCoord src, arch::CoreCoord dst, bool rows_first) {
    const bool hops = inst_->tracer != nullptr;
    path_scratch_.clear();
    hop_scratch_.clear();
    arch::CoreCoord cur = src;
    const auto walk_cols = [&] {
      while (cur.col != dst.col) {
        const arch::Dir d = cur.col < dst.col ? arch::Dir::East : arch::Dir::West;
        path_scratch_.push_back(link_index(cur, d));
        if (hops) hop_scratch_.push_back({cur, d});
        cur.col += cur.col < dst.col ? 1 : -1u;
      }
    };
    const auto walk_rows = [&] {
      while (cur.row != dst.row) {
        const arch::Dir d = cur.row < dst.row ? arch::Dir::South : arch::Dir::North;
        path_scratch_.push_back(link_index(cur, d));
        if (hops) hop_scratch_.push_back({cur, d});
        cur.row += cur.row < dst.row ? 1 : -1u;
      }
    };
    if (rows_first) {
      walk_rows();
      walk_cols();
    } else {
      walk_cols();
      walk_rows();
    }
  }

  /// Report a burst over the built path to the tracer, if one is armed.
  void trace_path(std::size_t bytes, sim::Cycles start, sim::Cycles occupancy) {
    trace::Tracer* const tr = inst_->tracer;
    if (tr == nullptr) return;
    for (const auto& [router, dir] : hop_scratch_) {
      tr->mesh_link(router, dir, static_cast<std::uint32_t>(bytes), start, start + occupancy);
    }
  }

  /// Earliest start >= `earliest` at which every link of the scratch path is
  /// both unoccupied and outside its fault windows; fault::kNever when a
  /// permanent outage blocks the path.
  [[nodiscard]] sim::Cycles path_start(sim::Cycles earliest, sim::Cycles occupancy) const {
    sim::Cycles start = earliest;
    for (auto li : path_scratch_) start = std::max(start, link_free_[li]);
    bool moved = true;
    while (moved) {
      moved = false;
      for (auto li : path_scratch_) {
        const sim::Cycles clear = inst_->faults->link_clear_from(li, start, occupancy);
        if (clear == fault::kNever) return fault::kNever;
        if (clear > start) {
          start = clear;
          moved = true;
        }
      }
    }
    return start;
  }

  /// Routing with mesh-link faults armed: try the XY route, waiting out
  /// transient outages; if a permanent outage blocks it, fall back to the YX
  /// route (rows first). Because two routes now exist per (src, dst) pair,
  /// a completion-time clamp preserves per-pair delivery order -- a later
  /// burst can never appear to land before an earlier one.
  sim::Cycles reserve_path_degraded(arch::CoreCoord src, arch::CoreCoord dst,
                                    std::size_t bytes, sim::Cycles earliest,
                                    sim::Cycles occupancy) {
    build_path(src, dst, /*rows_first=*/false);
    sim::Cycles start = path_start(earliest, occupancy);
    if (start == fault::kNever) {
      build_path(src, dst, /*rows_first=*/true);
      start = path_start(earliest, occupancy);
      if (start == fault::kNever) {
        throw fault::UnroutableError("no mesh route " + arch::to_string(src) + " -> " +
                                     arch::to_string(dst) +
                                     ": XY and YX both cross a failed link");
      }
      inst_->faults->note_reroute(src, dst);
    }
    for (auto li : path_scratch_) link_free_[li] = start + occupancy;
    trace_path(bytes, start, occupancy);
    sim::Cycles done =
        start + occupancy +
        static_cast<sim::Cycles>(
            timing_->mesh_hop_cycles * static_cast<double>(path_scratch_.size()) + 0.5);
    if (pair_done_.empty()) {
      pair_done_.resize(static_cast<std::size_t>(dims_.core_count()) * dims_.core_count(), 0);
    }
    sim::Cycles& last =
        pair_done_[static_cast<std::size_t>(dims_.index_of(src)) * dims_.core_count() +
                   dims_.index_of(dst)];
    done = std::max(done, last);
    last = done;
    return done;
  }

  arch::MeshDims dims_;
  const arch::TimingParams* timing_;
  sim::Engine* engine_;
  const fault::Instruments* inst_;
  std::vector<sim::Cycles> link_free_;
  std::vector<std::size_t> path_scratch_;
  std::vector<std::pair<arch::CoreCoord, arch::Dir>> hop_scratch_;
  std::vector<sim::Cycles> pair_done_;  // per (src,dst): last delivery, for ordering
};

}  // namespace epi::noc
