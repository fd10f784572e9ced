#pragma once
// epi-serve cluster mode: serving a multi-chip xMesh array.
//
// One chip is one conservative-PDES domain (machine/partition.hpp): it owns
// its own Machine, engine, and Scheduler, and advances inside
// sim::ParallelEngine's synchronous windows. The only cross-domain
// traffic is job forwarding -- a deterministic fraction of each chip's
// arrival stream is homed on another chip, so the launch request crosses
// the xMesh bridge (serialization + per-hop flight, noc/xmesh.hpp) before
// joining the home chip's admission queue -- plus the completion notice
// that flows back to the origin when the job resolves.
//
// Determinism contract: the window schedule and every per-domain event
// order are pure functions of the configuration, so reruns produce
// byte-identical reports, decision logs, and notice logs.
//
// Failover (armed only when the cluster plan carries chip-scoped faults,
// so fault-free runs keep their historical bytes): every chip heartbeats
// its peers over the bridge; an origin whose forwards sit on a peer with
// stale heartbeats -- or that keeps timing out -- quarantines that peer in
// its own health view and re-forwards the orphaned work (all stages of a
// graph, since the dead home's partial results died with it) to the next
// healthy chip, with bounded attempts, exponential backoff, and idempotent
// dedup on both ends: the home drops (and re-acks) replayed jobs it has
// seen, the origin takes the first valid completion notice per job and
// logs later ones as stale. Completion notices are CRC-checked like eLink
// transfers; a corrupted notice is discarded (and reported) and the
// forward-timeout path recovers. Every recovery decision lands in the
// deterministic logs and the cluster-health report footer.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/timing.hpp"
#include "fault/cluster.hpp"
#include "fault/plan.hpp"
#include "machine/partition.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/parallel.hpp"

namespace epi::sched {

/// Knobs of the chip-level failover stack. Periods are in cycles; the
/// defaults detect a dead 2x2-cluster chip well inside the makespan of the
/// default traffic mix while tolerating transient stalls and flapping
/// links without false quarantines.
struct FailoverConfig {
  sim::Cycles heartbeat_period = 150'000;  // per-chip heartbeat interval
  unsigned miss_budget = 4;                // stale after this many periods
  sim::Cycles forward_timeout = 2'000'000; // per-forward completion budget
  sim::Cycles forward_backoff = 50'000;    // re-forward delay; doubles per try
};

struct ClusterConfig {
  unsigned chip_rows = 2;          // chip grid (domains = chip_rows*chip_cols)
  unsigned chip_cols = 2;
  arch::MachineConfig chip{};      // every chip runs the same machine config
  SchedConfig sched{};             // per-chip scheduler policy
  TrafficConfig traffic{};         // per-chip stream; seed is offset per chip
  double remote_frac = 0.25;       // fraction of each stream homed off-chip
  // The cluster's one fault input (the `chips RxC` grammar; empty =
  // fault-free): chip-scoped faults arm the failover stack, and chip-tagged
  // machine faults are split per chip by fault::ClusterInjector onto that
  // chip's machine injector.
  fault::FaultPlan cluster_plan{};
  FailoverConfig failover{};
  // Arm per-chip tracing: every chip's machine records into its own Tracer
  // and write_trace() exports one Chrome process per chip (per-chip fault /
  // reforward / quarantine counters land on that chip's counter track).
  bool trace = false;
};

struct ClusterStats {
  unsigned chips = 0;
  sim::Cycles lookahead = 0;       // PDES lookahead (min cross-chip latency)
  std::uint64_t windows = 0;       // synchronisation windows executed
  std::uint64_t forwards = 0;      // cross-chip job launches
  std::uint64_t notices = 0;       // completion notices sent back
  std::uint64_t xmesh_bytes = 0;   // bytes serialized over chip egress links
  sim::Cycles makespan = 0;        // max per-chip makespan
  // ---- failover (all zero in unarmed runs) -------------------------------
  std::uint64_t reforwarded = 0;   // jobs re-homed after a timeout/quarantine
  std::uint64_t quarantines = 0;   // peer-quarantine decisions taken
  std::uint64_t abandoned = 0;     // forwards dropped after the retry budget
  std::uint64_t dup_dropped = 0;   // replayed jobs deduped at their home
  std::uint64_t crc_rejects = 0;   // completion notices failing the CRC check
  unsigned dead_chips = 0;         // chips that crashed during the run
  std::uint64_t abandoned_jobs = 0;// jobs a dead chip left unresolved
};

/// Owns the chips, routes the streams, and drives the windowed run. All
/// report/log accessors are valid after run().
class ClusterScheduler {
public:
  explicit ClusterScheduler(ClusterConfig cfg);
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  /// Serve every chip's stream to completion. Callable once. `workers` is
  /// ignored: the window loop runs on the calling thread. The parameter
  /// stays so existing callers keep building.
  void run(unsigned workers = 1);

  /// Deterministic cluster report: header + per-chip epi-serve reports +
  /// cross-chip notice logs. Excludes wall-clock by design so the bytes are
  /// identical from run to run.
  [[nodiscard]] std::string report() const;

  [[nodiscard]] const machine::PartitionMap& partition() const noexcept {
    return part_;
  }
  [[nodiscard]] const ClusterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const sim::ParallelStats& parallel_stats() const;
  [[nodiscard]] const Scheduler& chip_sched(unsigned chip) const;
  /// Completion notices delivered to `chip` (origin side), delivery order.
  [[nodiscard]] const std::vector<std::string>& notices(unsigned chip) const;

  /// True when the cluster plan armed the failover stack.
  [[nodiscard]] bool failover_armed() const noexcept { return armed_; }

  /// Chrome/Perfetto trace of the whole cluster run, one process per chip.
  /// Requires ClusterConfig::trace; valid after run().
  void write_trace(std::ostream& os) const;

private:
  struct Chip;

  void route_streams();
  void queue_forward(JobSpec spec);
  void deliver_forward(unsigned home, JobSpec spec);
  void send_notice(unsigned home, unsigned origin, std::uint32_t id,
                   Verdict v, sim::Cycles now);
  void failover_pump(unsigned chip, sim::Cycles now);
  void reforward(unsigned chip, std::uint64_t key, sim::Cycles now,
                 const char* why);
  void emit_heartbeats(unsigned chip, sim::Cycles now);
  [[nodiscard]] std::string health_footer() const;

  ClusterConfig cfg_;
  machine::PartitionMap part_;
  std::vector<std::unique_ptr<Chip>> chips_;
  std::unique_ptr<sim::ParallelEngine> pe_;
  std::unique_ptr<fault::ClusterInjector> injector_;
  bool armed_ = false;
  ClusterStats stats_;
  bool ran_ = false;
};

}  // namespace epi::sched
