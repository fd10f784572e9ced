#pragma once
// xMesh inter-chip bridge: the timing model for traffic that leaves a chip.
//
// The Epiphany architecture tiles chips into larger arrays by routing each
// chip's four eLinks to its grid neighbours (the "xMesh"). This model keeps
// the seam coarse on purpose: a cross-chip message is serialized through
// the sender's egress link at eLink-grade bandwidth (with the paper's
// observed 4x write-protocol overhead, section V-B), then spends a fixed
// flight latency per chip-grid hop -- eLink transaction overhead through
// the FPGA glue plus per-hop forwarding.
//
// Everything here is *sender-local* state: egress occupancy lives with the
// sending chip, and the receiver only sees a delivery time. That locality
// is what lets the conservative PDES window loop treat chips as
// independent domains within a window, with min_latency() as the
// lookahead -- the guarantee that no cross-chip effect lands sooner than
// one eLink transaction plus one hop after it is issued.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "arch/timing.hpp"
#include "sim/engine.hpp"

namespace epi::noc {

class XMeshBridge {
public:
  XMeshBridge(const arch::TimingParams& timing, unsigned num_chips)
      : timing_(&timing), link_free_(num_chips, 0) {}

  /// Account a posted message of `bytes` to chip `dst`, `hops` grid hops
  /// away, becoming ready at cycle `ready`. Returns the delivery cycle:
  /// egress serialization behind earlier traffic to the same destination,
  /// then per-hop flight. Never earlier than ready + min_latency().
  /// When an outage covers `ready` the message waits for the link to clear
  /// before serializing (see set_outage); a permanently dead link returns
  /// sim::Engine-style "never" (~0) and accounts nothing.
  [[nodiscard]] sim::Cycles send(unsigned dst, unsigned hops, std::size_t bytes,
                                 sim::Cycles ready) {
    if (outage_) {
      const sim::Cycles clear = outage_(dst, ready);
      if (clear == ~sim::Cycles{0}) return clear;  // link is down forever
      ready = std::max(ready, clear);
    }
    const double cycles_per_byte =
        timing_->xmesh_write_overhead / timing_->xmesh_bytes_per_cycle;
    const auto ser = static_cast<sim::Cycles>(static_cast<double>(bytes) *
                                              cycles_per_byte);
    const sim::Cycles depart = std::max(ready, link_free_[dst]) + ser;
    link_free_[dst] = depart;
    ++messages_;
    bytes_sent_ += bytes;
    return depart + flight(hops);
  }

  /// Pure flight latency for `hops` chip-grid hops (no serialization).
  [[nodiscard]] sim::Cycles flight(unsigned hops) const noexcept {
    return timing_->elink_txn_latency_cycles +
           std::max(hops, 1u) * timing_->xmesh_hop_latency_cycles;
  }

  /// The conservative-PDES lookahead this bridge guarantees: the minimum
  /// cross-domain latency of any message (== TimingParams::xmesh_min_latency).
  [[nodiscard]] static sim::Cycles min_latency(
      const arch::TimingParams& timing) noexcept {
    return timing.xmesh_min_latency();
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

  /// Install a fault-injection hook for this bridge's egress: `fn(dst, t)`
  /// returns the earliest cycle >= t the link towards `dst` is up, or ~0
  /// for a permanent outage. Unset (the default) means a healthy link; the
  /// hook is consulted per send, so a flapping link stays seed-exact.
  void set_outage(std::function<sim::Cycles(unsigned, sim::Cycles)> fn) {
    outage_ = std::move(fn);
  }

private:
  const arch::TimingParams* timing_;
  std::vector<sim::Cycles> link_free_;  // per-destination egress occupancy
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::function<sim::Cycles(unsigned, sim::Cycles)> outage_;
};

}  // namespace epi::noc
