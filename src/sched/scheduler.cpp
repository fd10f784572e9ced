#include "sched/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <stdexcept>
#include <utility>

#include "lint/workgroup.hpp"
#include "sched/dag.hpp"
#include "sched/kernels.hpp"
#include "util/fmt.hpp"

namespace epi::sched {

namespace {
constexpr sim::Cycles kNever = std::numeric_limits<sim::Cycles>::max();
constexpr unsigned kMaxLaunchAttempts = 4;    // launch attempts before Failed
constexpr unsigned kMaxReexecutions = 2;      // full re-runs after a detected fault
constexpr sim::Cycles kRetryBackoff = 25'000; // first retry delay; doubles per attempt
}  // namespace

Scheduler::Scheduler(host::System& sys, SchedConfig cfg)
    : sys_(&sys), cfg_(cfg), alloc_(sys.machine().dims()) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument("SchedConfig::queue_capacity must be at least 1");
  }
  if (cfg_.aging_quantum == 0) cfg_.aging_quantum = 1;
  define_counters();
}

// Scheduler metrics live in the machine's registry, so with a tracer armed
// queue depth / cores busy land on the Perfetto timeline next to the cores'
// own spans.
void Scheduler::define_counters() {
  using K = trace::Counters::Kind;
  trace::Counters& c = counters();
  c_submitted_ = c.define("sched.jobs.submitted", K::Monotonic);
  c_admitted_ = c.define("sched.jobs.admitted", K::Monotonic);
  c_rejected_ = c.define("sched.jobs.rejected", K::Monotonic);
  c_completed_ = c.define("sched.jobs.completed", K::Monotonic);
  c_timedout_ = c.define("sched.jobs.timed_out", K::Monotonic);
  c_failed_ = c.define("sched.jobs.failed", K::Monotonic);
  c_launch_failures_ = c.define("sched.launch.failures", K::Monotonic);
  c_retries_ = c.define("sched.launch.retries", K::Monotonic);
  c_busy_cycles_ = c.define("sched.core_cycles.busy", K::Monotonic);
  g_queue_depth_ = c.define("sched.queue.depth", K::Gauge);
  g_running_ = c.define("sched.jobs.running", K::Gauge);
  g_cores_busy_ = c.define("sched.cores.busy", K::Gauge);
  c_faults_ = c.define("sched.faults.detected", K::Monotonic);
  c_reexecs_ = c.define("sched.jobs.reexecuted", K::Monotonic);
  g_quarantined_ = c.define("sched.cores.quarantined", K::Gauge);
  c_lint_rejects_ = c.define("sched.lint.rejects", K::Monotonic);
  c_lint_warnings_ = c.define("sched.lint.warnings", K::Monotonic);
  c_handoff_scratch_ = c.define("sched.dag.handoff.scratch_bytes", K::Monotonic);
  c_handoff_dram_ = c.define("sched.dag.handoff.dram_bytes", K::Monotonic);
}

void Scheduler::bump(trace::Counters::Id id, double delta) {
  sys_->machine().count(id, delta);
}

void Scheduler::gauge(trace::Counters::Id id, double value) {
  sys_->machine().set_count(id, value, sys_->engine().now());
}

trace::Counters::Id Scheduler::tenant_counter(const std::string& tenant,
                                              const char* what) {
  return counters().define("sched.tenant." + tenant + "." + what,
                           trace::Counters::Kind::Monotonic);
}

void Scheduler::log_event(std::string_view line) { log_.append(line); }

void Scheduler::submit(JobSpec spec) {
  if (ran_) throw std::logic_error("Scheduler::submit after run()");
  JobRecord rec;
  rec.spec = std::move(spec);
  records_.push_back(std::move(rec));
  register_graph(static_cast<std::uint32_t>(records_.size() - 1));
}

/// Track a graph stage's record; once the whole graph is here, wire the
/// producer->consumer edges both ways. Stages may not launch before the
/// graph is wired (dag_launchable): a producer started earlier would have no
/// spill plan for consumers the cluster bridge has not delivered yet.
void Scheduler::register_graph(std::uint32_t rec_idx) {
  const JobSpec& spec = records_[rec_idx].spec;
  if (spec.graph == 0) return;
  id_to_rec_[spec.id] = rec_idx;
  GraphState& gs = graphs_[spec.graph];
  gs.recs.push_back(rec_idx);
  ++gs.unresolved;
  if (spec.graph_stages == 0 || gs.recs.size() < spec.graph_stages) return;
  gs.wired = true;
  for (const std::uint32_t r : gs.recs) dag_[r];  // ensure every stage's entry
  for (const std::uint32_t r : gs.recs) {
    for (const auto& [dep_id, bytes] : records_[r].spec.deps) {
      const auto it = id_to_rec_.find(dep_id);
      if (it == id_to_rec_.end() ||
          records_[it->second].spec.graph != spec.graph) {
        dag_[r].broken = true;  // malformed workload: fails at drop_orphaned
        continue;
      }
      dag_[r].dep_recs.emplace_back(it->second, bytes);
      dag_[it->second].outs.emplace_back(r, bytes);
    }
  }
}

double Scheduler::effective_priority(const Pending& p, sim::Cycles now) const {
  const JobSpec& spec = records_[p.rec].spec;
  const sim::Cycles waited = now >= p.enqueued ? now - p.enqueued : 0;
  return static_cast<double>(spec.priority) +
         static_cast<double>(waited / cfg_.aging_quantum);
}

void Scheduler::resolve(JobRecord& rec, Verdict v, sim::Cycles now,
                        std::string detail) {
  rec.verdict = v;
  rec.detail = std::move(detail);
  if (rec.finished == 0 && v != Verdict::Completed) rec.finished = now;
  ++resolved_;
  ++epoch_;
  if (rec.spec.graph != 0) {
    if (const auto it = graphs_.find(rec.spec.graph);
        it != graphs_.end() && it->second.unresolved > 0) {
      --it->second.unresolved;
    }
  }
  makespan_ = std::max(makespan_, v == Verdict::Completed ? rec.finished : now);
  switch (v) {
    case Verdict::Completed:
      bump(c_completed_, 1.0);
      bump(tenant_counter(rec.spec.tenant, "completed"), 1.0);
      break;
    case Verdict::Rejected:
      bump(c_rejected_, 1.0);
      bump(tenant_counter(rec.spec.tenant, "rejected"), 1.0);
      break;
    case Verdict::TimedOut:
      bump(c_timedout_, 1.0);
      bump(tenant_counter(rec.spec.tenant, "timed_out"), 1.0);
      break;
    case Verdict::Failed:
      bump(c_failed_, 1.0);
      bump(tenant_counter(rec.spec.tenant, "failed"), 1.0);
      break;
    case Verdict::Pending:
      throw std::logic_error("resolve to Pending");
  }
  if (resolve_hook_) resolve_hook_(rec, now);
}

bool Scheduler::admit_arrivals(sim::Cycles now) {
  bool progress = false;
  while (next_arrival_ < arrivals_.size() &&
         records_[arrivals_[next_arrival_]].spec.arrival <= now) {
    const std::uint32_t idx = arrivals_[next_arrival_++];
    JobRecord& rec = records_[idx];
    const JobSpec& spec = rec.spec;
    progress = true;
    bump(c_submitted_, 1.0);
    bump(tenant_counter(spec.tenant, "submitted"), 1.0);
    log_event(util::format("@%llu submit job=%u tenant=%s kind=%s shape=%ux%u prio=%u",
                        static_cast<unsigned long long>(now), spec.id,
                        spec.tenant.c_str(), to_string(spec.kind), spec.rows,
                        spec.cols, spec.priority));
    if (!alloc_.fits_ever(spec.rows, spec.cols)) {
      resolve(rec, Verdict::Rejected, now,
              util::format("shape %ux%u cannot fit the %ux%u mesh", spec.rows,
                        spec.cols, alloc_.dims().rows, alloc_.dims().cols));
      log_event(util::format("@%llu reject job=%u reason=unsatisfiable-shape",
                          static_cast<unsigned long long>(now), spec.id));
      continue;
    }
    if (!lint_gate(rec, now)) continue;
    if (pending_.size() >= cfg_.queue_capacity) {
      resolve(rec, Verdict::Rejected, now,
              util::format("admission queue full (%zu pending)", pending_.size()));
      log_event(util::format("@%llu reject job=%u reason=queue-full",
                          static_cast<unsigned long long>(now), spec.id));
      continue;
    }
    rec.admitted = now;
    pending_.push_back(Pending{idx, now, 0});
    ++epoch_;
    bump(c_admitted_, 1.0);
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
    log_event(util::format("@%llu admit job=%u depth=%zu",
                        static_cast<unsigned long long>(now), spec.id,
                        pending_.size()));
  }
  return progress;
}

bool Scheduler::lint_gate(JobRecord& rec, sim::Cycles now) {
  const JobSpec& spec = rec.spec;
  if (spec.kind != JobKind::Custom) return true;
  // A custom job with no programs, or programs that do not assemble, can
  // never run -- reject regardless of the lint mode.
  lint::WorkgroupSpec wspec;
  try {
    wspec = lint::assemble_workgroup(spec.rows, spec.cols, spec.programs);
  } catch (const std::exception& e) {
    resolve(rec, Verdict::Rejected, now, std::string("lint: ") + e.what());
    log_event(util::format("@%llu reject job=%u reason=lint-assembly",
                        static_cast<unsigned long long>(now), spec.id));
    bump(c_lint_rejects_, 1.0);
    return false;
  }
  if (cfg_.lint == LintMode::Off) return true;
  const auto findings = lint::verify_workgroup(wspec);
  std::size_t errors = 0;
  for (const auto& f : findings) {
    if (f.finding.severity >= lint::Severity::Error) ++errors;
  }
  if (errors > 0 && cfg_.lint == LintMode::Strict) {
    std::string first;
    for (const auto& f : findings) {
      if (f.finding.severity >= lint::Severity::Error) {
        first = f.format();
        break;
      }
    }
    resolve(rec, Verdict::Rejected, now,
            util::format("lint: %zu error(s), first: %s", errors, first.c_str()));
    log_event(util::format("@%llu lint-reject job=%u errors=%zu findings=%zu",
                        static_cast<unsigned long long>(now), spec.id, errors,
                        findings.size()));
    bump(c_lint_rejects_, 1.0);
    return false;
  }
  if (!findings.empty()) {
    log_event(util::format("@%llu lint-warn job=%u errors=%zu findings=%zu first=%s",
                        static_cast<unsigned long long>(now), spec.id, errors,
                        findings.size(), findings.front().format().c_str()));
    bump(c_lint_warnings_, static_cast<double>(findings.size()));
  }
  return true;
}

bool Scheduler::reap_completed(sim::Cycles now) {
  bool progress = false;
  for (std::size_t i = 0; i < running_.size();) {
    Running& run = running_[i];
    if (!run.wg->complete()) {
      ++i;
      continue;
    }
    progress = true;
    JobRecord& rec = records_[run.rec];
    rec.finished = run.wg->finish_time();
    busy_core_cycles_ += static_cast<double>(run.placement.cores()) *
                         static_cast<double>(rec.finished - rec.started);
    bump(c_busy_cycles_, static_cast<double>(run.placement.cores()) *
                             static_cast<double>(rec.finished - rec.started));
    rec.deadline_met = rec.spec.deadline == 0 || rec.finished <= rec.spec.deadline;
    std::string fail_detail;
    bool fault_failure = false;  // fault-model error (CRC, unroutable): retryable
    if (run.wg->any_failed()) {
      try {
        run.wg->rethrow_errors();
      } catch (const fault::FaultError& e) {
        fault_failure = true;
        fail_detail = e.what();
      } catch (const std::exception& e) {
        fail_detail = e.what();
      } catch (...) {
        fail_detail = "unknown kernel error";
      }
    }
    // Result validation: with a fault plan armed, the launcher seeded this
    // offload job's scratch stripes with a known pattern; a DRAM mismatch now
    // means a flip slipped past the transfer CRCs (e.g. a scratchpad or
    // direct DRAM corruption) and the job must not count as served.
    std::string corrupt;
    if (fail_detail.empty()) {
      auto* inj = sys_->machine().faults();
      if (inj != nullptr && inj->armed() && rec.spec.kind == JobKind::Offload) {
        corrupt = verify_offload_output(*sys_, *run.wg, rec.spec, run.shm_base);
      }
      // shmem jobs carry a host reference derived from the spec alone, so
      // they are validated unconditionally (not only under armed faults).
      if (rec.spec.kind == JobKind::CannonMatmul ||
          rec.spec.kind == JobKind::Transpose) {
        corrupt = verify_shmem_output(*sys_, *run.wg, rec.spec);
      }
    }
    run.wg.reset();  // release the core reservation before freeing the rect
    alloc_.free(run.placement);
    // The offload buffer goes back once its result was checked; a re-run
    // takes a fresh one at launch.
    if (const std::size_t shm = job_shm_bytes(rec.spec); shm > 0) {
      sys_->shm_free(run.shm_base, shm);
    }
    if (fault_failure || !corrupt.empty()) {
      const char* kind = fault_failure ? "transfer" : "corrupt-result";
      report_fault(now, rec.finished, rec, kind,
                   fault_failure ? fail_detail : corrupt);
      requeue_or_fail(run.rec, now, kind);
    } else if (!fail_detail.empty()) {
      resolve(rec, Verdict::Failed, now, "kernel error: " + fail_detail);
      log_event(util::format("@%llu fail job=%u reason=kernel-error",
                          static_cast<unsigned long long>(now), rec.spec.id));
    } else {
      if (rec.reexecs > 0) {
        rec.recovery = (rec.placed_row == rec.first_row &&
                        rec.placed_col == rec.first_col &&
                        rec.granted_rows == rec.first_rows &&
                        rec.granted_cols == rec.first_cols)
                           ? Recovery::Retried
                           : Recovery::Relocated;
        bump(tenant_counter(rec.spec.tenant, to_string(rec.recovery)), 1.0);
      }
      if (rec.spec.graph != 0) {
        // Consumers launched after this point may pull straight from the
        // stage's scratchpads (if the rect survives untouched) or from its
        // DRAM spill buffers.
        DagInfo& di = dag_[run.rec];
        di.done_place = run.placement;
        di.place_seq = run.place_seq;
        di.has_result = true;
      }
      resolve(rec, Verdict::Completed, now, "");
      log_event(util::format(
          "@%llu finish job=%u cycles=%llu deadline=%s frag=%.3f%s%s",
          static_cast<unsigned long long>(now), rec.spec.id,
          static_cast<unsigned long long>(rec.service()),
          rec.spec.deadline == 0 ? "n/a" : (rec.deadline_met ? "met" : "missed"),
          alloc_.fragmentation(),
          rec.recovery == Recovery::None ? "" : " recovery=",
          rec.recovery == Recovery::None ? "" : to_string(rec.recovery)));
    }
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    gauge(g_running_, static_cast<double>(running_.size()));
    gauge(g_cores_busy_, static_cast<double>(alloc_.used_cores()));
  }
  return progress;
}

void Scheduler::report_fault(sim::Cycles now, sim::Cycles since, const JobRecord& rec,
                             const char* kind, std::string detail) {
  fault_log_.push_back(
      fault::FaultReport{now, since, rec.spec.id, kind, std::move(detail)});
  bump(c_faults_, 1.0);
  log_event(util::format("@%llu fault job=%u kind=%s latency=%llu",
                      static_cast<unsigned long long>(now), rec.spec.id, kind,
                      static_cast<unsigned long long>(now - since)));
}

/// A detected fault ended this job's current execution. Give it another full
/// run if the re-execution budget and the (possibly degraded) mesh allow;
/// otherwise it fails with the fault as the reason.
void Scheduler::requeue_or_fail(std::uint32_t rec_idx, sim::Cycles now,
                                const char* why) {
  JobRecord& rec = records_[rec_idx];
  // Deadline-aware retry budget for pipeline stages: replaying a stage whose
  // graph deadline has already passed only burns cores its siblings need, so
  // the stage fails now and the cascade drop cleans its consumers up.
  if (rec.spec.graph != 0 && rec.spec.deadline != 0 && now >= rec.spec.deadline) {
    resolve(rec, Verdict::Failed, now,
            util::format("%s fault at cycle %llu past stage deadline %llu: "
                      "replay abandoned",
                      why, static_cast<unsigned long long>(now),
                      static_cast<unsigned long long>(rec.spec.deadline)));
    log_event(util::format("@%llu fail job=%u reason=deadline-exhausted fault=%s",
                        static_cast<unsigned long long>(now), rec.spec.id, why));
    return;
  }
  if (rec.reexecs < kMaxReexecutions &&
      alloc_.fits_ever(rec.spec.rows, rec.spec.cols)) {
    ++rec.reexecs;
    rec.started = 0;
    rec.finished = 0;
    bump(c_reexecs_, 1.0);
    const sim::Cycles backoff = kRetryBackoff << std::min(rec.reexecs - 1, 20u);
    pending_.push_back(Pending{rec_idx, now, now + backoff});
    ++epoch_;
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
    log_event(util::format("@%llu requeue job=%u reexec=%u reason=%s retry_at=%llu",
                        static_cast<unsigned long long>(now), rec.spec.id,
                        rec.reexecs, why,
                        static_cast<unsigned long long>(now + backoff)));
  } else {
    resolve(rec, Verdict::Failed, now,
            util::format("%s fault persisted after %u re-executions", why,
                      rec.reexecs));
    log_event(util::format("@%llu fail job=%u reason=%s reexecs=%u",
                        static_cast<unsigned long long>(now), rec.spec.id, why,
                        rec.reexecs));
  }
}

/// After a quarantine shrank the healthy mesh, queued shapes that can no
/// longer ever be placed must fail now instead of waiting forever.
void Scheduler::drop_unsatisfiable(sim::Cycles now) {
  for (std::size_t i = 0; i < pending_.size();) {
    JobRecord& rec = records_[pending_[i].rec];
    if (alloc_.fits_ever(rec.spec.rows, rec.spec.cols)) {
      ++i;
      continue;
    }
    resolve(rec, Verdict::Failed, now,
            util::format("mesh degraded: %ux%u no longer placeable (%u cores "
                      "quarantined)",
                      rec.spec.rows, rec.spec.cols, alloc_.quarantined_cores()));
    log_event(util::format("@%llu fail job=%u reason=mesh-degraded",
                        static_cast<unsigned long long>(now), rec.spec.id));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
  }
}

std::size_t Scheduler::abandon_unresolved(sim::Cycles at,
                                          const std::string& reason) {
  std::size_t abandoned = 0;
  for (Running& run : running_) {
    run.wg.reset();  // release reservations before freeing the rectangles
    alloc_.free(run.placement);
  }
  running_.clear();
  pending_.clear();
  next_arrival_ = arrivals_.size();
  ++epoch_;
  for (JobRecord& rec : records_) {
    if (rec.verdict != Verdict::Pending) continue;
    ++abandoned;
    resolve(rec, Verdict::Failed, at, reason);
    log_event(util::format("@%llu fail job=%u reason=chip-dead",
                        static_cast<unsigned long long>(at), rec.spec.id));
  }
  gauge(g_queue_depth_, 0.0);
  gauge(g_running_, 0.0);
  gauge(g_cores_busy_, static_cast<double>(alloc_.used_cores()));
  return abandoned;
}

/// Per-workgroup watchdog: a running job that has been resident past its
/// silence budget, and whose cores the fault injector knows to be stalled or
/// dead (or whose kernels have no runnable event left anywhere), is declared
/// faulted. Its rectangle is quarantined -- a stalled-not-dead kernel may
/// resume later as a zombie, so the cores are never handed to another job --
/// and the job itself is re-queued or failed. This is what turns the old
/// global DeadlockError into a per-job, recoverable verdict.
bool Scheduler::check_watchdogs(sim::Cycles now) {
  if (cfg_.watchdog_cycles == 0 || running_.empty()) return false;
  auto* inj = sys_->machine().faults();
  const bool engine_idle = sys_->engine().empty();
  bool fired = false;
  for (std::size_t i = 0; i < running_.size();) {
    Running& run = running_[i];
    JobRecord& rec = records_[run.rec];
    if (run.wg->complete() || now < rec.started + cfg_.watchdog_cycles) {
      ++i;
      continue;
    }
    sim::Cycles since = fault::kNever;
    if (inj != nullptr) {
      for (unsigned r = 0; r < run.placement.rows; ++r) {
        for (unsigned c = 0; c < run.placement.cols; ++c) {
          since = std::min(since, inj->unresponsive_since(
                                      {run.placement.origin.row + r,
                                       run.placement.origin.col + c},
                                      now));
        }
      }
    }
    // A core that threw (e.g. UnroutableError on a severed route) wrecks the
    // whole group: its mates block on a barrier that can never be satisfied,
    // so trip at the horizon instead of waiting for the engine to drain.
    const bool wrecked = run.wg->any_failed();
    if (since == fault::kNever && !wrecked && !engine_idle) {
      ++i;
      continue;
    }
    fired = true;
    const sim::Cycles first_sign = since == fault::kNever ? rec.started : since;
    std::string detail =
        util::format("job %u silent on %ux%u@(%u,%u) for %llu cycles",
                     rec.spec.id, run.placement.rows, run.placement.cols,
                     run.placement.origin.row, run.placement.origin.col,
                     static_cast<unsigned long long>(now - first_sign));
    if (wrecked) {
      try {
        run.wg->rethrow_errors();
      } catch (const std::exception& e) {
        detail += util::format(" (core error: %s)", e.what());
      }
    }
    report_fault(now, first_sign, rec, "watchdog", std::move(detail));
    alloc_.quarantine(run.placement);
    ++epoch_;
    gauge(g_quarantined_, static_cast<double>(alloc_.quarantined_cores()));
    log_event(util::format(
        "@%llu quarantine origin=(%u,%u) shape=%ux%u job=%u total=%u",
        static_cast<unsigned long long>(now), run.placement.origin.row,
        run.placement.origin.col, run.placement.rows, run.placement.cols,
        rec.spec.id, alloc_.quarantined_cores()));
    graveyard_.push_back(std::move(run.wg));
    const std::uint32_t rec_idx = run.rec;
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    gauge(g_running_, static_cast<double>(running_.size()));
    gauge(g_cores_busy_, static_cast<double>(alloc_.used_cores()));
    requeue_or_fail(rec_idx, now, "watchdog");
  }
  if (fired) drop_unsatisfiable(now);
  return fired;
}

bool Scheduler::drop_timed_out(sim::Cycles now) {
  bool progress = false;
  for (std::size_t i = 0; i < pending_.size();) {
    JobRecord& rec = records_[pending_[i].rec];
    const JobSpec& spec = rec.spec;
    if (spec.timeout == 0 || now < rec.admitted + spec.timeout) {
      ++i;
      continue;
    }
    progress = true;
    resolve(rec, Verdict::TimedOut, now,
            util::format("not started within %llu cycles of admission",
                      static_cast<unsigned long long>(spec.timeout)));
    log_event(util::format("@%llu timeout job=%u waited=%llu",
                        static_cast<unsigned long long>(now), spec.id,
                        static_cast<unsigned long long>(now - rec.admitted)));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
  }
  return progress;
}

std::uint32_t Scheduler::min_unresolved_graph() const {
  for (const auto& [gid, gs] : graphs_) {
    if (gs.unresolved > 0) return gid;
  }
  return 0;
}

/// Whether a pending record's pipeline dependencies allow launching now:
/// graph fully submitted (wired), every producer completed with a usable
/// result, and -- with pipeline_overlap off -- its graph is the oldest one
/// still unresolved (whole-graph serialisation, the abl_dag baseline).
/// Standalone jobs are always launchable.
bool Scheduler::dag_launchable(std::uint32_t rec_idx) const {
  const JobRecord& rec = records_[rec_idx];
  if (rec.spec.graph == 0) return true;
  const auto git = graphs_.find(rec.spec.graph);
  if (git == graphs_.end() || !git->second.wired) return false;
  if (!cfg_.pipeline_overlap && rec.spec.graph != min_unresolved_graph()) {
    return false;
  }
  const auto dit = dag_.find(rec_idx);
  if (dit == dag_.end()) return true;
  if (dit->second.broken) return false;
  for (const auto& [producer, bytes] : dit->second.dep_recs) {
    (void)bytes;
    if (records_[producer].verdict != Verdict::Completed) return false;
    const auto pit = dag_.find(producer);
    if (pit == dag_.end() || !pit->second.has_result) return false;
  }
  return true;
}

/// A stage whose producer reached a non-Completed terminal verdict can never
/// run: fail it now (cascading down the chain on later passes) instead of
/// letting it camp in the queue until its timeout.
bool Scheduler::drop_orphaned(sim::Cycles now) {
  bool progress = false;
  for (std::size_t i = 0; i < pending_.size();) {
    JobRecord& rec = records_[pending_[i].rec];
    if (rec.spec.graph == 0) {
      ++i;
      continue;
    }
    const auto git = graphs_.find(rec.spec.graph);
    const auto dit = dag_.find(pending_[i].rec);
    bool orphan = false;
    std::uint32_t upstream = 0;
    if (git != graphs_.end() && git->second.wired && dit != dag_.end()) {
      if (dit->second.broken) {
        orphan = true;
      } else {
        for (const auto& [producer, bytes] : dit->second.dep_recs) {
          (void)bytes;
          const Verdict v = records_[producer].verdict;
          if (v == Verdict::Rejected || v == Verdict::TimedOut ||
              v == Verdict::Failed) {
            orphan = true;
            upstream = records_[producer].spec.id;
            break;
          }
        }
      }
    }
    if (!orphan) {
      ++i;
      continue;
    }
    progress = true;
    resolve(rec, Verdict::Failed, now,
            dit->second.broken
                ? "pipeline stage has an unresolvable dependency"
                : util::format("upstream stage (job %u) failed", upstream));
    log_event(util::format("@%llu fail job=%u reason=upstream-failed",
                           static_cast<unsigned long long>(now), rec.spec.id));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
  }
  return progress;
}

/// Scratchpad handoff is only sound while the producer's freed rectangle
/// still holds its staging bytes: every cell must carry either the
/// producer's own placement epoch or the consumer's brand-new one (the
/// consumer overlapping its producer's old cells is fine -- nothing scrubs
/// the staging window between jobs).
bool Scheduler::handoff_epoch_valid(const Placement& producer,
                                    std::uint64_t producer_seq,
                                    std::uint64_t self_seq) const {
  for (unsigned r = 0; r < producer.rows; ++r) {
    for (unsigned c = 0; c < producer.cols; ++c) {
      const std::uint64_t s =
          alloc_.cell_seq(producer.origin.row + r, producer.origin.col + c);
      if (s != producer_seq && s != self_seq) return false;
    }
  }
  return true;
}

bool Scheduler::launch(Pending& p, sim::Cycles now) {
  JobRecord& rec = records_[p.rec];
  const JobSpec& spec = rec.spec;
  // Co-placement: anchor a pipeline stage next to its completed producers'
  // rectangles so the scratchpad handoff path (adjacent rects) can trigger.
  // Standalone jobs pass no anchors, which is exactly first-fit place().
  std::vector<Placement> anchors;
  if (spec.graph != 0) {
    if (const auto dit = dag_.find(p.rec); dit != dag_.end()) {
      for (const auto& [producer, bytes] : dit->second.dep_recs) {
        (void)bytes;
        if (const auto pit = dag_.find(producer);
            pit != dag_.end() && pit->second.has_result) {
          anchors.push_back(pit->second.done_place);
        }
      }
    }
  }
  auto placement = alloc_.place_near(spec.rows, spec.cols, anchors);
  if (!placement) return false;
  const std::uint64_t myseq = alloc_.last_place_seq();

  ++rec.attempts;
  if (rec.attempts <= spec.launch_failures) {
    // Injected transient launch failure (a real e_load/e_start can fail and
    // is retried by robust hosts). The rectangle is returned immediately;
    // the job backs off exponentially before its next attempt.
    alloc_.free(*placement);
    bump(c_launch_failures_, 1.0);
    if (rec.attempts >= kMaxLaunchAttempts) {
      resolve(rec, Verdict::Failed, now,
              util::format("launch failed %u times", rec.attempts));
      log_event(util::format("@%llu fail job=%u reason=launch-failed attempts=%u",
                          static_cast<unsigned long long>(now), spec.id,
                          rec.attempts));
      return true;  // terminal: caller removes the job from pending_
    }
    const sim::Cycles backoff = kRetryBackoff << std::min(rec.attempts - 1, 20u);
    p.retry_at = now + backoff;
    ++epoch_;
    bump(c_retries_, 1.0);
    log_event(util::format("@%llu launch-fail job=%u attempt=%u retry_at=%llu",
                        static_cast<unsigned long long>(now), spec.id,
                        rec.attempts,
                        static_cast<unsigned long long>(p.retry_at)));
    return false;
  }

  std::unique_ptr<host::Workgroup> wg;
  arch::Addr shm_base = 0;
  std::vector<HandoffPull> pulls;
  std::vector<HandoffSpill> spills;
  try {
    wg = std::make_unique<host::Workgroup>(
        sys_->machine(),
        device::GroupInfo{placement->origin, placement->rows, placement->cols});
    wg->set_label(util::format("job %u", spec.id));
    wg->on_complete([this] { ++epoch_; });  // reap at the next pass
    if (const std::size_t shm = job_shm_bytes(spec); shm > 0) {
      shm_base = sys_->shm_alloc(shm);
    }
    if (spec.graph != 0) {
      if (const auto dit = dag_.find(p.rec); dit != dag_.end()) {
        DagInfo& di = dit->second;
        // In-edges: pull each producer's tensor. Scratch-to-scratch over the
        // mesh when the rects are adjacent and the producer's cells still
        // hold its staging bytes; otherwise read back the DRAM spill buffer.
        for (const auto& [producer, bytes] : di.dep_recs) {
          const DagInfo& pd = dag_.at(producer);
          std::size_t out = 0;
          while (out < pd.outs.size() && pd.outs[out].first != p.rec) ++out;
          if (out >= pd.out_bases.size()) {
            throw std::logic_error("pipeline producer has no spill buffer");
          }
          const bool scratch = cfg_.scratch_handoff &&
                               rects_adjacent(*placement, pd.done_place) &&
                               handoff_epoch_valid(pd.done_place, pd.place_seq,
                                                   myseq);
          pulls.push_back(HandoffPull{
              scratch,
              device::GroupInfo{{pd.done_place.origin.row,
                                 pd.done_place.origin.col},
                                pd.done_place.rows, pd.done_place.cols},
              pd.out_bases[out], bytes});
        }
        // Out-edges: this stage always spills each tensor to its own DRAM
        // buffer -- consumer adjacency is unknowable until the consumer is
        // placed, and a re-execution must not reuse a half-written buffer.
        di.out_bases.clear();
        for (const auto& [consumer, bytes] : di.outs) {
          (void)consumer;
          const arch::Addr base = sys_->shm_alloc(bytes);
          di.out_bases.push_back(base);
          spills.push_back(HandoffSpill{base, bytes});
        }
      }
    }
    device::KernelFn kernel = prepare_job(*sys_, *wg, spec, shm_base);
    if (!pulls.empty() || !spills.empty()) {
      kernel = wrap_stage_kernel(std::move(kernel), pulls, spills);
    }
    wg->load(std::move(kernel));
    // Fault runs seed offload inputs with a known pattern so reap-time
    // result validation can tell corrupted output from correct output.
    if (auto* inj = sys_->machine().faults(); inj != nullptr && inj->armed()) {
      fill_offload_input(*sys_, *wg, spec);
    }
  } catch (const std::exception& e) {
    // A launch-path error (bad shape for the kernel, shm exhaustion, ...)
    // must fail this one job, not escape and take the serving loop down.
    wg.reset();  // release the reservation before the rect goes back
    alloc_.free(*placement);
    if (shm_base != 0) sys_->shm_free(shm_base, job_shm_bytes(spec));
    resolve(rec, Verdict::Failed, now, std::string("launch error: ") + e.what());
    log_event(util::format("@%llu fail job=%u reason=launch-error",
                        static_cast<unsigned long long>(now), spec.id));
    return true;  // terminal: caller removes the job from pending_
  }

  ++epoch_;
  rec.started = now;
  rec.placed_row = placement->origin.row;
  rec.placed_col = placement->origin.col;
  rec.granted_rows = placement->rows;
  rec.granted_cols = placement->cols;
  if (!rec.placed_once) {
    rec.placed_once = true;
    rec.first_row = rec.placed_row;
    rec.first_col = rec.placed_col;
    rec.first_rows = rec.granted_rows;
    rec.first_cols = rec.granted_cols;
  }

  auto& slot =
      running_.emplace_back(Running{p.rec, *placement, std::move(wg), shm_base, myseq});
  slot.wg->start();
  peak_resident_ = std::max(peak_resident_, static_cast<unsigned>(running_.size()));
  gauge(g_running_, static_cast<double>(running_.size()));
  gauge(g_cores_busy_, static_cast<double>(alloc_.used_cores()));
  log_event(util::format(
      "@%llu place job=%u origin=(%u,%u) shape=%ux%u%s wait=%llu frag=%.3f",
      static_cast<unsigned long long>(now), spec.id, rec.placed_row,
      rec.placed_col, rec.granted_rows, rec.granted_cols,
      placement->rotated ? " rotated" : "",
      static_cast<unsigned long long>(rec.queue_wait()), alloc_.fragmentation()));
  for (const HandoffPull& h : pulls) {
    if (h.scratch) {
      handoff_scratch_bytes_ += h.bytes;
      bump(c_handoff_scratch_, static_cast<double>(h.bytes));
    } else {
      handoff_dram_bytes_ += h.bytes;
      bump(c_handoff_dram_, static_cast<double>(h.bytes));
    }
    log_event(util::format(
        "@%llu handoff job=%u from=(%u,%u) bytes=%u transport=%s",
        static_cast<unsigned long long>(now), spec.id, h.producer.origin.row,
        h.producer.origin.col, h.bytes, h.scratch ? "scratch" : "dram"));
  }
  return true;
}

/// Launch what fits, in aged-priority order. Returns the pending_ index of
/// the starving head that stopped the backfill (its head-block line is
/// logged), or kNoBlock.
std::size_t Scheduler::try_place(sim::Cycles now) {
  if (pending_.empty()) return kNoBlock;
  // Order candidates by aged priority (descending), admission order as the
  // tie-break. Each key is computed once per pass; indices, not Pending
  // copies: launch() mutates retry state.
  std::vector<std::pair<double, std::size_t>> keyed(pending_.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    keyed[i] = {effective_priority(pending_[i], now), i};
  }
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  std::vector<std::size_t> launched;
  std::size_t blocked = kNoBlock;
  for (std::size_t k = 0; k < keyed.size(); ++k) {
    Pending& p = pending_[keyed[k].second];
    JobRecord& rec = records_[p.rec];
    if (p.retry_at > now) continue;  // still backing off
    if (!dag_launchable(p.rec)) continue;  // producers not finished yet
    if (launch(p, now)) {
      launched.push_back(keyed[k].second);
      continue;
    }
    if (rec.started == 0 && p.retry_at <= now && k == 0 &&
        now >= p.enqueued + cfg_.head_block_wait) {
      // The highest-priority waiter is starving for space: stop backfilling
      // smaller jobs behind it, or a stream of 1x1s would starve an 8x8.
      blocked = keyed[k].second;
      log_head_block(p, now);
      break;
    }
  }
  if (!launched.empty()) {
    std::sort(launched.begin(), launched.end());
    for (std::size_t i = launched.size(); i-- > 0;) {
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(launched[i]));
    }
    gauge(g_queue_depth_, static_cast<double>(pending_.size()));
  }
  return blocked;
}

namespace {

constexpr std::string_view kHeadBlockMid = " head-block job=";
constexpr std::string_view kHeadBlockTail = " waited=";
// The most decimal digits of each field's type.
constexpr int kCycleDigits = std::numeric_limits<sim::Cycles>::digits10 + 1;
constexpr int kJobDigits = std::numeric_limits<std::uint32_t>::digits10 + 1;
constexpr std::size_t kHeadBlockMax = 1 + kCycleDigits + kHeadBlockMid.size() +
                                      kJobDigits + kHeadBlockTail.size() + kCycleDigits;

/// Format the head-block line into `buf` and return it. Each field's
/// to_chars gets exactly its own room, which also shows the compiler that
/// no write leaves `buf`.
std::string_view format_head_block(char (&buf)[kHeadBlockMax], sim::Cycles now,
                                   std::uint32_t job, sim::Cycles waited) {
  char* p = buf;
  *p++ = '@';
  p = std::to_chars(p, p + kCycleDigits, now).ptr;
  p = std::copy(kHeadBlockMid.begin(), kHeadBlockMid.end(), p);
  p = std::to_chars(p, p + kJobDigits, job).ptr;
  p = std::copy(kHeadBlockTail.begin(), kHeadBlockTail.end(), p);
  p = std::to_chars(p, p + kCycleDigits, waited).ptr;
  return {buf, static_cast<std::size_t>(p - buf)};
}

}  // namespace

std::string head_block_line(sim::Cycles now, std::uint32_t job,
                            sim::Cycles waited) {
  char buf[kHeadBlockMax];
  return std::string(format_head_block(buf, now, job, waited));
}

void Scheduler::log_head_block(const Pending& p, sim::Cycles now) {
  char buf[kHeadBlockMax];
  log_event(format_head_block(buf, now, records_[p.rec].spec.id, now - p.enqueued));
}

/// Earliest cycle after `now` at which the host has work: the next arrival,
/// a backoff expiring, a queue timeout, or (watchdog armed) a running job's
/// silence horizon -- the engine wakeup armed when no device event is left.
/// With `policy`, also every cycle at which a policy pass could decide
/// differently from one at `now` with no state change in between: a pending
/// job's next aging step (try_place's order only moves there) and a head
/// crossing head_block_wait. A running job already past its silence horizon
/// is read afresh every step (fault injector, engine idleness), so then the
/// result is `now` itself.
sim::Cycles Scheduler::next_wakeup(sim::Cycles now, bool policy) const {
  sim::Cycles t = kNever;
  if (next_arrival_ < arrivals_.size()) {
    t = std::min(t, std::max(records_[arrivals_[next_arrival_]].spec.arrival,
                             now + 1));
  }
  for (const Pending& p : pending_) {
    const JobSpec& spec = records_[p.rec].spec;
    if (p.retry_at > now) t = std::min(t, p.retry_at);
    if (spec.timeout != 0) {
      const sim::Cycles deadline = records_[p.rec].admitted + spec.timeout;
      t = std::min(t, std::max(deadline, now + 1));
    }
    if (policy) {
      const sim::Cycles waited = now >= p.enqueued ? now - p.enqueued : 0;
      t = std::min(t, p.enqueued + cfg_.aging_quantum *
                                       (waited / cfg_.aging_quantum + 1));
      if (waited < cfg_.head_block_wait) {
        t = std::min(t, p.enqueued + cfg_.head_block_wait);
      }
    }
  }
  if (cfg_.watchdog_cycles != 0) {
    // With the watchdog armed, every running job is a wakeup source: if its
    // kernels fall silent the host still visits it at the silence horizon.
    for (const Running& r : running_) {
      const sim::Cycles horizon = records_[r.rec].started + cfg_.watchdog_cycles;
      if (policy && horizon <= now) return now;
      t = std::min(t, std::max(horizon, now + 1));
    }
  }
  return t;
}

void Scheduler::begin() {
  if (ran_) throw std::logic_error("Scheduler::run called twice");
  ran_ = true;
  arrivals_.resize(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) arrivals_[i] = i;
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (records_[a].spec.arrival != records_[b].spec.arrival) {
                       return records_[a].spec.arrival < records_[b].spec.arrival;
                     }
                     return records_[a].spec.id < records_[b].spec.id;
                   });
}

/// One full sweep of the serving policies, repeated until nothing moves.
/// If it changed no state (epoch_ unmoved: no admit, verdict, launch or
/// retry, so its only possible line is a head-block), its outcome stays
/// valid until the policy horizon or the next state change.
void Scheduler::policy_pass(sim::Cycles now) {
  ++passes_.full;
  const std::uint64_t epoch = epoch_;
  std::size_t blocked = kNoBlock;
  bool progress = true;
  while (progress) {
    progress = admit_arrivals(now);
    progress = reap_completed(now) || progress;
    progress = check_watchdogs(now) || progress;
    progress = drop_timed_out(now) || progress;
    progress = drop_orphaned(now) || progress;
    const std::size_t before = resolved_;
    blocked = try_place(now);
    // A terminal verdict inside try_place (launch failed/errored out) may
    // orphan queued consumer stages; sweep again so they cannot stall the
    // run waiting on a producer that will never exist.
    if (resolved_ != before) progress = drop_orphaned(now) || progress;
  }
  blocked_ = blocked;
  pass_epoch_ = epoch_;
  pass_valid_until_ = epoch_ == epoch ? next_wakeup(now, /*policy=*/true) : now;
}

void Scheduler::run_window(sim::Cycles limit) {
  sim::Engine& eng = sys_->engine();
  while (resolved_ < records_.size()) {
    const sim::Cycles now = eng.now();
    if (epoch_ == pass_epoch_ && now < pass_valid_until_) {
      // Nothing the last full pass read has changed: it would decide the
      // same again, down to its head-block line.
      ++passes_.cached;
      if (blocked_ != kNoBlock) log_head_block(pending_[blocked_], now);
    } else {
      policy_pass(now);
    }
    if (resolved_ >= records_.size()) break;
    if (eng.step_below(limit)) continue;
    // Nothing runnable below the window end. If events remain beyond it the
    // window is simply exhausted; the PDES barrier resumes us later at the
    // exact point the open-ended loop would have reached.
    if (!eng.empty()) return;
    // No device events runnable at all. If groups are still resident their
    // kernels are deadlocked: without a watchdog that is fatal (the pre-
    // fault behaviour); with one, the next horizon visit converts each
    // silent group into a FaultReport and the loop continues.
    if (!running_.empty() && cfg_.watchdog_cycles == 0) {
      throw eng.deadlock_error();
    }
    const sim::Cycles t = next_wakeup(now);
    if (t == kNever) {
      if (limit != kNever) return;  // cluster mode: idle until a forward lands
      if (!running_.empty()) {
        throw eng.deadlock_error();
      }
      throw std::logic_error("scheduler stalled with unresolved jobs and no horizon");
    }
    if (t >= limit) return;  // horizon beyond the window: pause, do not arm
    eng.call_at(t, [] {});
  }
}

sim::Cycles Scheduler::host_horizon() const {
  if (!ran_ || resolved_ >= records_.size()) return kNever;
  return next_wakeup(sys_->engine().now());
}

void Scheduler::finish() { makespan_ = std::max(makespan_, sys_->engine().now()); }

void Scheduler::submit_remote(JobSpec spec) {
  if (!ran_) throw std::logic_error("Scheduler::submit_remote before begin()");
  const sim::Cycles now = sys_->engine().now();
  if (spec.arrival < now) spec.arrival = now;
  const auto idx = static_cast<std::uint32_t>(records_.size());
  JobRecord rec;
  rec.spec = std::move(spec);
  records_.push_back(std::move(rec));
  ++epoch_;
  register_graph(idx);
  // Keep the unconsumed arrival tail sorted by (arrival, id). The delivery
  // time is >= now, and every consumed arrival is <= now, so the insertion
  // point can never fall before next_arrival_.
  const auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    if (records_[a].spec.arrival != records_[b].spec.arrival) {
      return records_[a].spec.arrival < records_[b].spec.arrival;
    }
    return records_[a].spec.id < records_[b].spec.id;
  };
  const auto it = std::lower_bound(
      arrivals_.begin() + static_cast<std::ptrdiff_t>(next_arrival_),
      arrivals_.end(), idx, cmp);
  arrivals_.insert(it, idx);
}

void Scheduler::run() {
  begin();
  run_window(kNever);
  finish();
}

double Scheduler::utilisation() const noexcept {
  if (makespan_ == 0) return 0.0;
  return busy_core_cycles_ / (static_cast<double>(alloc_.dims().core_count()) *
                              static_cast<double>(makespan_));
}

}  // namespace epi::sched
