#pragma once
// epi-serve: a multi-tenant job scheduler for the 8x8 mesh.
//
// The paper runs one hand-placed workgroup at a time (section III's
// e_open / e_load / e_start flow). A production-scale system must instead
// treat the chip as a shared, schedulable resource: a stream of jobs
// arrives, each wanting a rectangle of cores, and many workgroups are
// resident *concurrently* inside one simulation -- so jobs genuinely fight
// over mesh links, the eLink, and shared-DRAM bandwidth.
//
// The Scheduler is host-side orchestration (untimed, like every host action
// in this model) driving the shared sim::Engine itself:
//
//   * admission control -- a bounded pending queue; jobs past capacity, or
//     with shapes that could never fit the mesh, are rejected on arrival;
//   * placement        -- first-fit rectangular placement via MeshAllocator,
//     enforced by the machine's CoreReservations (Workgroup RAII);
//   * priority aging   -- effective priority grows with queue wait, and a
//     starving queue head blocks backfill behind it, so a big low-priority
//     job cannot be starved forever by a stream of small urgent ones;
//   * retry w/ backoff -- launch failures (injected by the traffic model;
//     real eSDK launches fail transiently) are retried with exponential
//     backoff up to a bounded attempt budget;
//   * timeouts         -- a job that cannot start within its timeout is
//     dropped with a TimedOut verdict; deadlines are soft SLOs tracked in
//     the metrics (hit-rate), never enforced by killing kernels;
//   * metrics          -- per-job records plus counters (queue depth, cores
//     busy, completions per tenant, ...) in the machine's trace::Counters;
//     with machine tracing armed, at any time, the samples land on the
//     Perfetto timeline alongside the cores' own spans.
//
// Determinism: every decision is a pure function of (job stream, config,
// engine event order). Two runs with the same seed produce byte-identical
// event logs, reports, and metrics; tests assert this.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "host/system.hpp"
#include "sched/allocator.hpp"
#include "sched/event_log.hpp"
#include "sched/job.hpp"
#include "trace/counters.hpp"

namespace epi::sched {

/// Admission-time static verification of Custom jobs' programs (the
/// whole-workgroup race/deadlock verifier, lint/workgroup.hpp):
///   Off    -- no verification (programs that fail to assemble still reject);
///   Warn   -- verify and log findings, admit anyway;
///   Strict -- reject jobs whose group has any error-severity finding, with
///             a structured verdict in JobRecord::detail, before placement.
enum class LintMode : std::uint8_t { Off, Warn, Strict };

[[nodiscard]] constexpr const char* to_string(LintMode m) noexcept {
  switch (m) {
    case LintMode::Off: return "off";
    case LintMode::Warn: return "warn";
    case LintMode::Strict: return "strict";
  }
  return "?";
}

struct SchedConfig {
  std::size_t queue_capacity = 64;     // pending jobs; beyond this, reject
  sim::Cycles aging_quantum = 100'000; // +1 effective priority per quantum waited
  sim::Cycles head_block_wait = 500'000;  // starved-head threshold: stop
                                          // backfilling smaller jobs past a
                                          // head that has waited this long
  sim::Cycles watchdog_cycles = 0;     // per-job silence budget after start;
                                       // 0 disables the watchdog (a stuck
                                       // group then raises DeadlockError, the
                                       // pre-fault-tolerance behaviour)
  LintMode lint = LintMode::Off;       // admission-time verification of
                                       // Custom jobs' programs
  // ---- pipeline (job-graph) policy, sched/dag.hpp --------------------------
  bool scratch_handoff = true;   // pull tensors scratchpad-to-scratchpad over
                                 // the mesh when producer and consumer are
                                 // adjacent (and the producer's cells are
                                 // untouched); false forces every handoff
                                 // through the DRAM spill buffer
  bool pipeline_overlap = true;  // admit stages of different graphs
                                 // concurrently (stage pipelining); false
                                 // serialises whole graphs in id order, the
                                 // abl_dag baseline
};

/// The decision log's `@<now> head-block job=<id> waited=<waited>` line,
/// byte-identical to util::format("@%llu head-block job=%u waited=%llu", ...)
/// but built with std::to_chars: a starving head logs one per policy pass,
/// which makes it nearly every line of an overloaded serve. The scheduler
/// logs it through the same formatter, from a stack buffer.
[[nodiscard]] std::string head_block_line(sim::Cycles now, std::uint32_t job,
                                          sim::Cycles waited);

class Scheduler {
public:
  explicit Scheduler(host::System& sys, SchedConfig cfg = {});

  /// Enqueue a job for its arrival time. Call before run(); the stream is
  /// replayed in arrival order regardless of submission order.
  void submit(JobSpec spec);

  /// Drive the shared engine until every submitted job has a terminal
  /// verdict. Jobs already resident keep running while new ones are placed;
  /// host scheduling actions are untimed, matching the paper's methodology.
  void run();

  // ---- windowed (PDES) driving --------------------------------------------
  // The cluster executor advances each chip's scheduler in conservative
  // time windows instead of one open-ended run(). The decomposition below
  // is exactly run()'s loop split at window boundaries: run() itself is
  // begin() + run_window(no limit) + finish(), so the open-ended behaviour
  // (and its byte-identical decision log) is unchanged.

  /// Freeze the submitted stream into (arrival, id) order and arm the run.
  /// After begin(), only submit_remote() may add jobs.
  void begin();

  /// Advance until the next runnable work lies at or beyond `limit` (events
  /// with time strictly below `limit` run), or every job is resolved.
  /// Resumable: calling again with a later limit continues exactly where
  /// the open-ended loop would have been.
  void run_window(sim::Cycles limit);

  /// True once every submitted job has a terminal verdict.
  [[nodiscard]] bool finished() const noexcept {
    return ran_ && resolved_ >= records_.size();
  }

  /// Earliest host-side wakeup (arrival, retry, timeout or watchdog
  /// horizon), or Engine::kNever when finished or none is armed. The
  /// domain's next_time() merges this with the engine's next event.
  [[nodiscard]] sim::Cycles host_horizon() const;

  /// Fold the final engine time into the makespan (run() does this itself;
  /// windowed drivers call it once after global completion).
  void finish();

  /// Cluster forwarding: submit a job that arrived over the xMesh after
  /// begin(). `spec.arrival` must be at or after the current engine time
  /// (it is the delivery cycle); the job joins the not-yet-admitted
  /// arrival stream in (arrival, id) order.
  void submit_remote(JobSpec spec);

  /// Chip-death cleanup: give every still-unresolved job a Failed verdict at
  /// cycle `at` with `reason` as the detail. The cluster executor calls this
  /// (resolve hook cleared first -- a dead chip sends no notices) after a
  /// chip-crash fault so accounting stays consistent without pretending the
  /// chip kept scheduling. Returns how many jobs were abandoned.
  std::size_t abandon_unresolved(sim::Cycles at, const std::string& reason);

  /// Hook invoked whenever a job reaches a terminal verdict (cluster
  /// completion notices). Called after the record is final.
  void set_resolve_hook(std::function<void(const JobRecord&, sim::Cycles)> hook) {
    resolve_hook_ = std::move(hook);
  }

  [[nodiscard]] const std::vector<JobRecord>& records() const noexcept {
    return records_;
  }
  /// Deterministic, append-only decision log ("@cycle event job=N ...").
  [[nodiscard]] const EventLog& event_log() const& noexcept { return log_; }
  /// The log of a scheduler about to be dropped, moved out instead of copied.
  [[nodiscard]] EventLog event_log() && noexcept { return std::move(log_); }
  [[nodiscard]] const MeshAllocator& allocator() const noexcept { return alloc_; }
  /// The machine's counter registry, which holds the sched.* counters.
  [[nodiscard]] trace::Counters& counters() noexcept { return sys_->machine().counters(); }
  [[nodiscard]] const trace::Counters& counters() const noexcept {
    return sys_->machine().counters();
  }

  /// Structured fault reports (watchdog trips, failed transfers, corrupt
  /// results): what a silent stall became instead of a DeadlockError.
  /// Deterministic: same plan + workload, byte-identical log.
  [[nodiscard]] const std::vector<fault::FaultReport>& fault_log() const noexcept {
    return fault_log_;
  }

  /// Cycle the last job resolved (makespan of the whole served stream).
  [[nodiscard]] sim::Cycles makespan() const noexcept { return makespan_; }
  /// Busy core-cycles / (64 * makespan): the chip-level duty factor.
  [[nodiscard]] double utilisation() const noexcept;
  /// Peak number of workgroups resident at once during the run.
  [[nodiscard]] unsigned peak_resident() const noexcept { return peak_resident_; }

  /// Tensor-handoff bytes pulled by consumer stages, by transport (the
  /// report's pipeline section; also counted on sched.dag.handoff.*).
  [[nodiscard]] std::uint64_t handoff_scratch_bytes() const noexcept {
    return handoff_scratch_bytes_;
  }
  [[nodiscard]] std::uint64_t handoff_dram_bytes() const noexcept {
    return handoff_dram_bytes_;
  }

  /// How often the serving loop swept its policies: `full` passes (admit,
  /// reap, watchdogs, timeouts, orphans, placement) against `cached` replays
  /// of the last full pass's outcome (see run_window). Host-side diagnostics
  /// only: kept out of counters(), so no report or trace byte depends on it.
  struct PassCounts {
    std::uint64_t full = 0;
    std::uint64_t cached = 0;
  };
  [[nodiscard]] const PassCounts& passes() const noexcept { return passes_; }

private:
  struct Pending {
    std::uint32_t rec;        // index into records_
    sim::Cycles enqueued;     // admission cycle (aging baseline)
    sim::Cycles retry_at;     // earliest next launch attempt (backoff)
  };
  struct Running {
    std::uint32_t rec;
    Placement placement;
    std::unique_ptr<host::Workgroup> wg;  // stable address: kernels point in
    arch::Addr shm_base = 0;              // job's DRAM region (result checks)
    std::uint64_t place_seq = 0;          // allocator epoch of this placement
  };
  /// Per-record pipeline wiring, populated once every stage of the record's
  /// graph has been submitted (graphs arrive whole in single-chip runs, but
  /// cluster forwards stagger stage delivery; launching a producer before its
  /// consumers are wired would lose the out-edge spill plan).
  struct DagInfo {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dep_recs;  // (producer rec, bytes)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> outs;      // (consumer rec, bytes)
    std::vector<arch::Addr> out_bases;  // spill buffers, one per out, set at launch
    Placement done_place{};             // granted rectangle at completion
    std::uint64_t place_seq = 0;        // allocator epoch of that placement
    bool has_result = false;            // completed; done_place/place_seq valid
    bool broken = false;                // dep id unresolvable: fail at admission
  };
  struct GraphState {
    std::vector<std::uint32_t> recs;  // record indices, submission order
    unsigned unresolved = 0;
    bool wired = false;
  };

  void log_event(std::string_view line);
  [[nodiscard]] double effective_priority(const Pending& p, sim::Cycles now) const;
  void policy_pass(sim::Cycles now);
  bool admit_arrivals(sim::Cycles now);
  /// Admission-time static verification of a Custom job. Returns true when
  /// the job may be admitted; on false the record is already resolved
  /// (Rejected) and the decision logged.
  bool lint_gate(JobRecord& rec, sim::Cycles now);
  bool reap_completed(sim::Cycles now);
  bool drop_timed_out(sim::Cycles now);
  std::size_t try_place(sim::Cycles now);
  void log_head_block(const Pending& p, sim::Cycles now);
  bool launch(Pending& p, sim::Cycles now);
  void resolve(JobRecord& rec, Verdict v, sim::Cycles now, std::string detail);
  [[nodiscard]] sim::Cycles next_wakeup(sim::Cycles now, bool policy = false) const;
  bool check_watchdogs(sim::Cycles now);
  void register_graph(std::uint32_t rec_idx);
  [[nodiscard]] bool dag_launchable(std::uint32_t rec_idx) const;
  [[nodiscard]] std::uint32_t min_unresolved_graph() const;
  bool drop_orphaned(sim::Cycles now);
  [[nodiscard]] bool handoff_epoch_valid(const Placement& producer,
                                         std::uint64_t producer_seq,
                                         std::uint64_t self_seq) const;
  void requeue_or_fail(std::uint32_t rec_idx, sim::Cycles now, const char* why);
  void drop_unsatisfiable(sim::Cycles now);
  void report_fault(sim::Cycles now, sim::Cycles since, const JobRecord& rec,
                    const char* kind, std::string detail);

  void define_counters();
  void bump(trace::Counters::Id id, double delta);
  void gauge(trace::Counters::Id id, double value);
  trace::Counters::Id tenant_counter(const std::string& tenant, const char* what);

  host::System* sys_;
  SchedConfig cfg_;
  MeshAllocator alloc_;
  std::vector<JobRecord> records_;   // submission order
  std::vector<std::uint32_t> arrivals_;  // record indices, (arrival, id) order
  std::size_t next_arrival_ = 0;
  std::vector<Pending> pending_;     // admission order
  std::vector<Running> running_;
  // Workgroups whose cores were quarantined by the watchdog. Kept alive (and
  // their reservations held) for the scheduler's lifetime: a stalled-not-dead
  // kernel may later resume as a zombie, and its frames/reservation must
  // stay valid while it does. Quarantined cores are never reallocated.
  std::vector<std::unique_ptr<host::Workgroup>> graveyard_;
  std::vector<fault::FaultReport> fault_log_;
  EventLog log_;
  // Pipeline state: graph wiring by graph id, per-record dag info (graph
  // records only), and job-id -> record lookups for dep resolution. Ordered
  // maps: min_unresolved_graph() and iteration must be deterministic.
  std::map<std::uint32_t, GraphState> graphs_;
  std::map<std::uint32_t, DagInfo> dag_;          // keyed by record index
  std::map<std::uint32_t, std::uint32_t> id_to_rec_;
  std::uint64_t handoff_scratch_bytes_ = 0;
  std::uint64_t handoff_dram_bytes_ = 0;
  std::size_t resolved_ = 0;
  std::function<void(const JobRecord&, sim::Cycles)> resolve_hook_;
  sim::Cycles makespan_ = 0;
  double busy_core_cycles_ = 0.0;
  unsigned peak_resident_ = 0;
  bool ran_ = false;

  // Event-driven policy passes. Every state change the passes read bumps
  // epoch_: admit, resolve (any verdict), launch, launch-fail retry,
  // requeue, quarantine, submit_remote (new arrival, graph wiring),
  // abandon_unresolved, and a workgroup completing (Workgroup::on_complete).
  // A full pass that changed nothing stays valid while epoch_ == pass_epoch_
  // and now < pass_valid_until_ (next_wakeup's policy horizon); until then
  // each step replays it, re-logging the starving head pending_[blocked_]
  // if the pass head-blocked.
  std::uint64_t epoch_ = 0;
  std::uint64_t pass_epoch_ = 0;
  sim::Cycles pass_valid_until_ = 0;
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  std::size_t blocked_ = kNoBlock;
  PassCounts passes_;

  // Ids in the machine's registry; bump() and gauge() also record a sample
  // when a tracer is armed, so the series joins the Perfetto export.
  trace::Counters::Id c_submitted_, c_admitted_, c_rejected_, c_completed_,
      c_timedout_, c_failed_, c_launch_failures_, c_retries_, c_busy_cycles_,
      g_queue_depth_, g_running_, g_cores_busy_, c_faults_, c_reexecs_,
      g_quarantined_, c_lint_rejects_, c_lint_warnings_, c_handoff_scratch_,
      c_handoff_dram_;
};

}  // namespace epi::sched
