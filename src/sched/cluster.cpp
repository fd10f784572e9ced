#include "sched/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "fault/crc.hpp"
#include "host/system.hpp"
#include "noc/xmesh.hpp"
#include "sched/kernels.hpp"
#include "sched/report.hpp"
#include "sim/random.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/fmt.hpp"

namespace epi::sched {

namespace {
// Wire cost of a forwarded launch beyond its operand footprint (the spec
// itself: ids, shape, SLOs), and of the fixed-size completion notice.
constexpr std::size_t kForwardHeaderBytes = 128;
constexpr std::size_t kNoticeBytes = 64;
// Cross-domain tie-break key space: job ids stay below 2^32, heartbeats get
// their own bit so concurrent deliveries order deterministically.
constexpr std::uint64_t kHeartbeatKey = std::uint64_t{1} << 32;
// Forward-unit key space: a whole graph fails over as one unit.
constexpr std::uint64_t kGraphKey = std::uint64_t{1} << 40;
// Total homes tried per forward before it is abandoned.
constexpr unsigned kMaxForwardAttempts = 3;

std::uint32_t payload_crc(const std::string& payload) {
  return fault::crc32(std::as_bytes(std::span(payload.data(), payload.size())));
}
}  // namespace

// One chip = one PDES domain. The scheduler and every engine event of this
// chip are touched only while the domain advances; cross-chip effects
// arrive exclusively through ParallelEngine::send. All failover bookkeeping
// below follows the same ownership rule: origin-side state (outstanding
// forwards, peer-health views) belongs to the origin chip, home-side state
// (dedup table) to the home chip. A chip learns of its peers only through
// delivered messages, which is what keeps each chip's view of the cluster
// realistic.
struct ClusterScheduler::Chip final : sim::Domain {
  Chip(const arch::MachineConfig& mc, const SchedConfig& sc, unsigned chips,
       bool trace)
      : sys(mc), sched(sys, sc), bridge(sys.timing(), chips) {
    if (trace) sys.machine().enable_tracing();
  }

  sim::Engine& engine() override { return sys.engine(); }

  // Alternate the scheduler pump with raw event draining: once every local
  // job is resolved the scheduler loop no-ops, but late completion notices
  // (plain engine events) must still run inside their window. A chip-crash
  // fault truncates the whole domain at the crash cycle (events at or after
  // it never run -- the chip took them to its grave); a chip-stall freezes
  // only the host pump while device events keep draining.
  void advance(sim::Cycles limit) override {
    sim::Engine& eng = sys.engine();
    const sim::Cycles lim = std::min(limit, crash_at);
    for (;;) {
      if (armed) {
        const sim::Cycles now = eng.now();
        const sim::Cycles thaw = owner->injector_->host_thaw(id, now);
        if (thaw == 0) {
          owner->failover_pump(id, now);
          sched.run_window(
              std::min(lim, owner->injector_->next_freeze(id, now)));
        } else if (thaw != fault::kNever && thaw > thaw_armed) {
          eng.call_at(thaw, [] {});  // wake the pump when the freeze lifts
          thaw_armed = thaw;
        }
      } else {
        sched.run_window(lim);
      }
      if (!eng.step_below(lim)) return;
    }
  }

  // Mirrors the sequential run() loop exactly: while the event queue is
  // non-empty the next event is the floor (host wakeups are only armed on
  // an empty queue, so a horizon below a pending event is never acted on
  // and must not drag the window back). A frozen host cannot act before its
  // thaw; anything at or past the crash cycle never happens at all.
  sim::Cycles next_time() override {
    sim::Cycles t = sys.engine().next_event_time();
    if (t == sim::Engine::kNever) {
      t = sched.host_horizon();
      if (armed && t != sim::Engine::kNever) {
        const sim::Cycles thaw = owner->injector_->host_thaw(id, t);
        if (thaw != 0) t = thaw;
      }
    }
    if (t >= crash_at) return sim::Engine::kNever;
    return t;
  }

  // A crashed chip's half-done work is a fault, not a deadlock: the
  // failover layer abandons it with verdicts after the run. Likewise a
  // fully-resolved scheduler may leave live coroutine frames behind -- a
  // watchdog that trips on a killed core abandons the silenced group's
  // suspended kernels by design -- so only frames backing genuinely
  // unresolved jobs count as stuck.
  std::vector<std::string> unfinished() override {
    if (crash_at != fault::kNever || sched.finished()) return {};
    return engine().live_process_names();
  }

  /// One tracked forward unit: a single remote job, or every stage of a
  /// remotely-homed graph (a graph fails over whole -- the old home's
  /// partial results died with it, so all stages are re-sent).
  struct Forward {
    std::vector<JobSpec> stages;      // original specs, submission order
    std::set<std::uint32_t> pending;  // stage ids awaiting a valid notice
    unsigned home = 0;
    unsigned attempts = 1;            // homes tried (the dedup sequence no.)
    sim::Cycles deadline = 0;         // latest stage deadline (0 = none)
    sim::Cycles last_send = 0;        // latest (scheduled) egress cycle
  };

  host::System sys;
  Scheduler sched;
  noc::XMeshBridge bridge;           // sender-local egress state
  std::vector<std::string> notices;  // delivered notices (origin side)
  std::uint64_t forwards = 0;
  std::uint64_t notices_sent = 0;

  // ---- failover (touched only when armed) --------------------------------
  ClusterScheduler* owner = nullptr;
  unsigned id = 0;
  bool armed = false;
  sim::Cycles crash_at = fault::kNever;
  sim::Cycles thaw_armed = 0;  // latest thaw wakeup already scheduled
  bool hb_live = false;        // heartbeat chain currently self-rescheduling
  // Origin side: tracked forwards and this chip's view of peer health.
  std::map<std::uint64_t, Forward> outstanding;
  std::map<std::uint32_t, std::uint64_t> job_to_fwd;
  std::vector<sim::Cycles> last_hb;       // per peer, newest heartbeat
  std::vector<unsigned> strikes;          // forward timeouts per peer
  std::vector<char> quarantined;          // per peer, own view
  std::vector<fault::FaultReport> cfaults;
  std::vector<std::uint64_t> blamed;      // faults per subject chip
  std::vector<std::uint64_t> rehomed_from;  // jobs re-forwarded off a home
  std::vector<std::string> decisions;     // recovery decision log
  std::uint64_t reforwarded_jobs = 0;
  std::uint64_t abandoned_jobs = 0;
  std::uint64_t crc_rejects = 0;
  std::uint64_t quarantine_count = 0;
  // Home side: idempotent replay dedup (job id -> local record index).
  std::map<std::uint32_t, std::uint32_t> seen;
  std::uint64_t dup_dropped = 0;
  std::uint64_t crash_abandoned = 0;  // own jobs failed when this chip died
};

ClusterScheduler::ClusterScheduler(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  part_.chip_rows = cfg_.chip_rows;
  part_.chip_cols = cfg_.chip_cols;
  part_.chip = cfg_.chip.dims;
  const unsigned k = part_.chips();
  if (k == 0) throw std::invalid_argument("cluster needs at least one chip");
  if (!(cfg_.remote_frac >= 0.0 && cfg_.remote_frac <= 1.0)) {
    throw std::invalid_argument("remote_frac must be in [0, 1]");
  }
  if (!cfg_.cluster_plan.empty() || cfg_.cluster_plan.cluster()) {
    injector_ = std::make_unique<fault::ClusterInjector>(cfg_.cluster_plan,
                                                         cfg_.chip_rows,
                                                         cfg_.chip_cols);
    armed_ = injector_->armed();
  }

  pe_ = std::make_unique<sim::ParallelEngine>(
      noc::XMeshBridge::min_latency(cfg_.chip.timing));
  chips_.reserve(k);
  for (unsigned c = 0; c < k; ++c) {
    chips_.push_back(
        std::make_unique<Chip>(cfg_.chip, cfg_.sched, k, cfg_.trace));
    Chip& ch = *chips_[c];
    ch.owner = this;
    ch.id = c;
    if (injector_) {
      const fault::FaultPlan mp = injector_->machine_plan(c);
      if (!mp.empty()) ch.sys.machine().enable_faults(mp);
    }
    if (armed_) {
      ch.armed = true;
      ch.crash_at = injector_->crash_at(c);
      ch.last_hb.assign(k, 0);
      ch.strikes.assign(k, 0);
      ch.quarantined.assign(k, 0);
      ch.blamed.assign(k, 0);
      ch.rehomed_from.assign(k, 0);
      ch.bridge.set_outage([this, c](unsigned dst, sim::Cycles t) {
        return injector_->xmesh_clear(c, dst, t);
      });
    }
    pe_->add_domain(ch);
  }

  route_streams();

  // Completion notices: when a chip resolves a job it did not originate, the
  // verdict travels back over the same bridge and lands as a log line on
  // the origin chip. Runs while the home chip advances; the delivery
  // closure runs on the origin chip, one window or more later.
  for (unsigned h = 0; h < k; ++h) {
    chips_[h]->sched.set_resolve_hook(
        [this, h](const JobRecord& rec, sim::Cycles now) {
          const unsigned o = rec.spec.origin_chip;
          if (o == h) return;
          send_notice(h, o, rec.spec.id, rec.verdict, now);
        });
  }
}

ClusterScheduler::~ClusterScheduler() = default;

void ClusterScheduler::route_streams() {
  const unsigned k = part_.chips();
  for (unsigned c = 0; c < k; ++c) {
    TrafficConfig tc = cfg_.traffic;
    tc.seed = cfg_.traffic.seed + 1000003ull * c;  // independent per-chip stream
    std::vector<JobSpec> jobs = generate(tc);
    // Routing draws come from their own stream so adding a routing decision
    // never perturbs the job shapes/SLOs drawn above.
    sim::Rng route(cfg_.traffic.seed ^ (0x9e3779b97f4a7c15ull * (c + 1)));
    std::map<std::uint32_t, unsigned> graph_home;  // whole graph, one chip
    for (JobSpec& s : jobs) {
      s.id = c * 100'000u + s.id;  // cluster-unique ids (tie-break key)
      for (auto& dep : s.deps) dep.first += c * 100'000u;
      if (s.graph != 0) s.graph += c * 100'000u;
      s.origin_chip = c;
      s.home_chip = c;
      if (s.graph != 0) {
        // Every stage of a graph runs on the same home chip (the stages
        // share scratchpad/DRAM handoffs); one routing draw per graph, at
        // its first stage.
        auto it = graph_home.find(s.graph);
        if (it == graph_home.end()) {
          unsigned home = c;
          if (k > 1 && route.next_float() < cfg_.remote_frac) {
            home = (c + 1 + static_cast<unsigned>(route.next_below(k - 1))) % k;
          }
          it = graph_home.emplace(s.graph, home).first;
        }
        s.home_chip = it->second;
      } else if (k > 1 && route.next_float() < cfg_.remote_frac) {
        s.home_chip =
            (c + 1 + static_cast<unsigned>(route.next_below(k - 1))) % k;
      }
      if (s.home_chip == c) {
        chips_[c]->sched.submit(std::move(s));
      } else {
        if (armed_) {
          // Track the forward so the failover layer can re-home it.
          Chip& oc = *chips_[c];
          const std::uint64_t key =
              s.graph != 0 ? kGraphKey | s.graph : std::uint64_t{s.id};
          Chip::Forward& fwd = oc.outstanding[key];
          if (fwd.stages.empty()) fwd.home = s.home_chip;
          fwd.pending.insert(s.id);
          fwd.deadline = std::max(fwd.deadline, s.deadline);
          fwd.last_send = std::max(fwd.last_send, s.arrival);
          oc.job_to_fwd.emplace(s.id, key);
          fwd.stages.push_back(s);
        }
        queue_forward(std::move(s));
      }
    }
  }
}

void ClusterScheduler::queue_forward(JobSpec spec) {
  const unsigned o = spec.origin_chip;
  const unsigned h = spec.home_chip;
  // The bridge send is computed *at departure time* (an egress event on the
  // origin engine), not at setup: egress serialization queues behind every
  // earlier forward in that chip's event order, exactly like the sequential
  // single-engine accounting would.
  Chip& origin = *chips_[o];
  origin.sys.engine().call_at(
      spec.arrival, [this, o, h, s = std::move(spec)]() mutable {
        Chip& oc = *chips_[o];
        const sim::Cycles now = oc.sys.engine().now();
        std::uint64_t key = 0;
        if (armed_) {
          // The failover layer may have re-homed (or finished) this unit
          // between setup and departure -- a resend already carried every
          // stage, so this stale egress must not duplicate it.
          const auto it = oc.job_to_fwd.find(s.id);
          if (it == oc.job_to_fwd.end()) return;
          key = it->second;
          const Chip::Forward& fwd = oc.outstanding.at(key);
          if (fwd.home != h || fwd.attempts > 1) return;
        }
        const std::size_t bytes = kForwardHeaderBytes + job_shm_bytes(s);
        const sim::Cycles at = oc.bridge.send(h, part_.hops(o, h), bytes, now);
        if (at == fault::kNever) {
          // The egress link is permanently down: reroute right away.
          oc.cfaults.push_back(fault::FaultReport{
              now, now, s.id, "xmesh-dead",
              util::format("bridge link %u->%u down, job never departed", o,
                           h)});
          ++oc.blamed[h];
          reforward(o, key, now, "xmesh-dead");
          return;
        }
        ++oc.forwards;
        if (armed_) {
          Chip::Forward& fwd = oc.outstanding.at(key);
          fwd.last_send = std::max(fwd.last_send, now);
        }
        s.arrival = at;  // the home chip sees the delivery cycle as arrival
        const std::uint32_t key32 = s.id;
        pe_->send(o, h, at, key32, [this, h, js = std::move(s)]() mutable {
          deliver_forward(h, std::move(js));
        });
      });
}

/// Home-side delivery of a forwarded job. With failover armed the home
/// dedups replays idempotently: a job it has already accepted is dropped,
/// and if it already resolved the completion notice is re-sent (the ack the
/// origin evidently never saw).
void ClusterScheduler::deliver_forward(unsigned home, JobSpec spec) {
  Chip& hc = *chips_[home];
  if (armed_) {
    const sim::Cycles now = hc.sys.engine().now();
    const auto it = hc.seen.find(spec.id);
    if (it != hc.seen.end()) {
      ++hc.dup_dropped;
      const JobRecord& rec = hc.sched.records()[it->second];
      const bool done = rec.verdict != Verdict::Pending;
      hc.decisions.push_back(util::format(
          "@%llu dup-forward job=%u %s", static_cast<unsigned long long>(now),
          spec.id, done ? "re-acked" : "still-running"));
      if (done) send_notice(home, spec.origin_chip, spec.id, rec.verdict, now);
      return;
    }
    hc.seen.emplace(spec.id,
                    static_cast<std::uint32_t>(hc.sched.records().size()));
    if (!hc.hb_live) {
      // The chain winds down once a chip drains; new remote work revives it
      // so peers watching this home keep seeing a pulse.
      hc.hb_live = true;
      hc.sys.engine().call_at(now + cfg_.failover.heartbeat_period,
                              [this, home] { emit_heartbeats(home, 0); });
    }
  }
  hc.sched.submit_remote(std::move(spec));
}

/// Home-side completion notice. With failover armed the payload is CRC-
/// checked end to end like an eLink transfer: the injector may drop the
/// notice outright or flip a bit after the checksum is taken, and the
/// origin discards (and reports) anything that fails verification -- the
/// forward-timeout path then recovers.
void ClusterScheduler::send_notice(unsigned home, unsigned origin,
                                   std::uint32_t id, Verdict v,
                                   sim::Cycles now) {
  Chip& hc = *chips_[home];
  if (!armed_) {
    const sim::Cycles at =
        hc.bridge.send(origin, part_.hops(home, origin), kNoticeBytes, now);
    ++hc.notices_sent;
    pe_->send(home, origin, at, id, [this, origin, id, v, at] {
      chips_[origin]->notices.push_back(util::format(
          "@%llu notice job=%u verdict=%s", static_cast<unsigned long long>(at),
          id, to_string(v)));
    });
    return;
  }
  if (injector_->drop_notice(home, now)) return;  // lost on the wire
  std::string payload = util::format("job=%u verdict=%s", id, to_string(v));
  const std::uint32_t crc = payload_crc(payload);
  (void)injector_->flip_notice(home, now, payload);
  const sim::Cycles at =
      hc.bridge.send(origin, part_.hops(home, origin), kNoticeBytes, now);
  if (at == fault::kNever) return;  // dead link: the timeout path recovers
  ++hc.notices_sent;
  pe_->send(home, origin, at, id,
            [this, home, origin, id, at, crc, payload = std::move(payload)] {
              Chip& oc = *chips_[origin];
              if (payload_crc(payload) != crc) {
                ++oc.crc_rejects;
                oc.cfaults.push_back(fault::FaultReport{
                    at, at, id, "notice-crc",
                    util::format("completion notice from chip %u corrupted in "
                                 "flight, discarded",
                                 home)});
                ++oc.blamed[home];
                oc.decisions.push_back(util::format(
                    "@%llu notice-corrupt from=%u",
                    static_cast<unsigned long long>(at), home));
                return;
              }
              const auto fit = oc.job_to_fwd.find(id);
              if (fit == oc.job_to_fwd.end()) {
                oc.notices.push_back(util::format(
                    "@%llu notice-stale %s",
                    static_cast<unsigned long long>(at), payload.c_str()));
                return;
              }
              Chip::Forward& fwd = oc.outstanding.at(fit->second);
              if (fwd.pending.erase(id) == 0) {
                oc.notices.push_back(util::format(
                    "@%llu notice-stale %s",
                    static_cast<unsigned long long>(at), payload.c_str()));
                return;
              }
              oc.notices.push_back(
                  util::format("@%llu notice %s",
                               static_cast<unsigned long long>(at),
                               payload.c_str()));
              if (fwd.pending.empty()) {
                const std::uint64_t key = fit->second;
                for (const JobSpec& s : fwd.stages) oc.job_to_fwd.erase(s.id);
                oc.outstanding.erase(key);
              }
            });
}

/// Origin-side failover pump, run before each scheduler window: time out
/// forwards that never completed, strike (and eventually quarantine) the
/// peers responsible, and quarantine peers whose heartbeats went stale
/// while this chip still has work homed on them.
void ClusterScheduler::failover_pump(unsigned chip, sim::Cycles now) {
  Chip& ch = *chips_[chip];
  if (ch.outstanding.empty()) return;
  const FailoverConfig& fo = cfg_.failover;
  const sim::Cycles stale =
      fo.heartbeat_period * std::max(fo.miss_budget, 1u);

  std::vector<std::uint64_t> timed_out;
  for (const auto& [key, fwd] : ch.outstanding) {
    if (now > fwd.last_send && now - fwd.last_send > fo.forward_timeout) {
      timed_out.push_back(key);
    }
  }
  for (const std::uint64_t key : timed_out) {
    const auto it = ch.outstanding.find(key);
    if (it == ch.outstanding.end()) continue;
    const Chip::Forward& fwd = it->second;
    const unsigned h = fwd.home;
    const std::uint32_t job = fwd.stages.size() == 1 ? fwd.stages[0].id
                                                     : ~std::uint32_t{0};
    ch.cfaults.push_back(fault::FaultReport{
        now, fwd.last_send, job, "forward-timeout",
        util::format("no completion from chip %u within %llu cycles", h,
                     static_cast<unsigned long long>(fo.forward_timeout))});
    ++ch.blamed[h];
    if (h != chip && !ch.quarantined[h] && ++ch.strikes[h] >= 2) {
      ch.quarantined[h] = 1;
      ++ch.quarantine_count;
      ch.cfaults.push_back(fault::FaultReport{
          now, fwd.last_send, ~std::uint32_t{0}, "chip-quarantine",
          util::format("chip %u quarantined after repeated forward timeouts",
                       h)});
      ++ch.blamed[h];
      ch.decisions.push_back(util::format(
          "@%llu quarantine chip=%u reason=forward-timeouts",
          static_cast<unsigned long long>(now), h));
    }
    reforward(chip, key, now, "timeout");
  }

  // Heartbeat watchdog: only peers this chip is actually waiting on are
  // watched, so an idle cluster never manufactures quarantines.
  for (const auto& [key, fwd] : ch.outstanding) {
    const unsigned h = fwd.home;
    if (h == chip || ch.quarantined[h]) continue;
    const sim::Cycles seen = std::max(ch.last_hb[h], fwd.last_send);
    if (now > seen && now - seen > stale) {
      ch.quarantined[h] = 1;
      ++ch.quarantine_count;
      ch.cfaults.push_back(fault::FaultReport{
          now, ch.last_hb[h], ~std::uint32_t{0}, "chip-watchdog",
          util::format("chip %u heartbeat stale (last seen @%llu)", h,
                       static_cast<unsigned long long>(ch.last_hb[h]))});
      ++ch.blamed[h];
      ch.decisions.push_back(util::format(
          "@%llu quarantine chip=%u reason=heartbeat-stale",
          static_cast<unsigned long long>(now), h));
    }
  }
  // Re-home everything sitting on a quarantined peer (including forwards
  // quarantined by earlier pumps whose backoff landed them back on one).
  std::vector<std::uint64_t> orphaned;
  for (const auto& [key, fwd] : ch.outstanding) {
    if (fwd.home != chip && ch.quarantined[fwd.home]) orphaned.push_back(key);
  }
  for (const std::uint64_t key : orphaned) {
    reforward(chip, key, now, "quarantine");
  }
}

/// Re-home one forward unit: bounded attempts, exponential backoff, next
/// healthy chip in ring order (falling back to running it on the origin
/// itself). Graphs re-send every stage -- the old home's partial results
/// are unreachable -- and the home-side dedup absorbs any replays that do
/// eventually surface.
void ClusterScheduler::reforward(unsigned chip, std::uint64_t key,
                                 sim::Cycles now, const char* why) {
  Chip& ch = *chips_[chip];
  const auto it = ch.outstanding.find(key);
  if (it == ch.outstanding.end()) return;
  Chip::Forward& fwd = it->second;
  const unsigned old = fwd.home;
  const bool graph = (key & kGraphKey) != 0;
  const auto unit_id =
      static_cast<std::uint32_t>(graph ? key & (kGraphKey - 1) : key);
  const char* unit = graph ? "graph" : "job";

  if (fwd.attempts >= kMaxForwardAttempts ||
      (fwd.deadline != 0 && now >= fwd.deadline)) {
    const bool out_of_time = fwd.attempts < kMaxForwardAttempts;
    ch.cfaults.push_back(fault::FaultReport{
        now, fwd.last_send,
        fwd.stages.size() == 1 ? fwd.stages[0].id : ~std::uint32_t{0},
        "forward-abandoned",
        out_of_time
            ? util::format("%s %u past its deadline %llu, retries stopped",
                           unit, unit_id,
                           static_cast<unsigned long long>(fwd.deadline))
            : util::format("%s %u still unresolved after %u homes", unit,
                           unit_id, fwd.attempts)});
    ++ch.blamed[old];
    ch.abandoned_jobs += fwd.pending.size();
    ch.decisions.push_back(util::format(
        "@%llu abandon %s=%u jobs=%zu attempts=%u reason=%s",
        static_cast<unsigned long long>(now), unit, unit_id,
        fwd.pending.size(), fwd.attempts, out_of_time ? "deadline" : "budget"));
    for (const JobSpec& s : fwd.stages) ch.job_to_fwd.erase(s.id);
    ch.outstanding.erase(it);
    return;
  }

  const unsigned k = part_.chips();
  unsigned nh = chip;  // fallback: the origin serves it locally
  for (unsigned step = 1; step < k; ++step) {
    const unsigned j = (old + step) % k;
    if (j == chip || !ch.quarantined[j]) {
      nh = j;
      break;
    }
  }
  ++fwd.attempts;
  fwd.home = nh;
  fwd.pending.clear();
  for (const JobSpec& s : fwd.stages) fwd.pending.insert(s.id);
  ch.reforwarded_jobs += fwd.stages.size();
  ch.rehomed_from[old] += fwd.stages.size();
  const sim::Cycles backoff =
      cfg_.failover.forward_backoff << std::min(fwd.attempts - 2, 20u);
  const sim::Cycles when = now + std::max<sim::Cycles>(backoff, 1);
  fwd.last_send = when;  // the timeout clock restarts at the resend
  ch.decisions.push_back(util::format(
      "@%llu reforward %s=%u jobs=%zu from=%u to=%u attempt=%u reason=%s "
      "send_at=%llu",
      static_cast<unsigned long long>(now), unit, unit_id, fwd.stages.size(),
      old, nh, fwd.attempts, why, static_cast<unsigned long long>(when)));

  ch.sys.engine().call_at(when, [this, chip, key] {
    Chip& oc = *chips_[chip];
    const auto fit = oc.outstanding.find(key);
    if (fit == oc.outstanding.end()) return;  // resolved while backing off
    Chip::Forward& fwd = oc.outstanding.at(key);
    const sim::Cycles now = oc.sys.engine().now();
    if (fwd.home == chip) {
      // Local fallback: the origin's own scheduler owns the outcome from
      // here (no notices to wait for), so the tracked unit retires.
      oc.decisions.push_back(util::format(
          "@%llu reforward-local jobs=%zu",
          static_cast<unsigned long long>(now), fwd.stages.size()));
      for (JobSpec s : fwd.stages) {
        s.home_chip = chip;
        s.arrival = now;
        oc.job_to_fwd.erase(s.id);
        oc.sched.submit_remote(std::move(s));
      }
      oc.outstanding.erase(key);
      return;
    }
    for (const JobSpec& stage : fwd.stages) {
      JobSpec s = stage;
      s.home_chip = fwd.home;
      const std::size_t bytes = kForwardHeaderBytes + job_shm_bytes(s);
      const sim::Cycles at =
          oc.bridge.send(fwd.home, part_.hops(chip, fwd.home), bytes, now);
      if (at == fault::kNever) {
        oc.cfaults.push_back(fault::FaultReport{
            now, now, s.id, "xmesh-dead",
            util::format("bridge link %u->%u down, resend never departed",
                         chip, fwd.home)});
        ++oc.blamed[fwd.home];
        reforward(chip, key, now, "xmesh-dead");
        return;
      }
      ++oc.forwards;
      s.arrival = at;
      const std::uint32_t key32 = s.id;
      const unsigned h = fwd.home;
      pe_->send(chip, h, at, key32, [this, h, js = std::move(s)]() mutable {
        deliver_forward(h, std::move(js));
      });
    }
  });
}

/// One heartbeat tick: pulse every peer (unless the host runtime is frozen
/// -- a stalled chip goes quiet exactly like a crashed one, which is what
/// lets peers tell), then re-arm while this chip still has local work or
/// tracked forwards. The chain winding down is what lets the PDES executor
/// reach global idle.
void ClusterScheduler::emit_heartbeats(unsigned chip, sim::Cycles) {
  Chip& ch = *chips_[chip];
  const sim::Cycles now = ch.sys.engine().now();
  const unsigned k = part_.chips();
  if (injector_->host_thaw(chip, now) == 0) {
    for (unsigned o = 0; o < k; ++o) {
      if (o == chip) continue;
      const sim::Cycles at = now + ch.bridge.flight(part_.hops(chip, o));
      pe_->send(chip, o, at, kHeartbeatKey | chip, [this, o, chip, at] {
        Chip& peer = *chips_[o];
        peer.last_hb[chip] = std::max(peer.last_hb[chip], at);
      });
    }
  }
  if (!ch.sched.finished() || !ch.outstanding.empty()) {
    ch.sys.engine().call_at(now + cfg_.failover.heartbeat_period,
                            [this, chip] { emit_heartbeats(chip, 0); });
  } else {
    ch.hb_live = false;
  }
}

void ClusterScheduler::run(unsigned /*workers*/) {
  if (ran_) throw std::logic_error("ClusterScheduler::run called twice");
  ran_ = true;
  for (auto& ch : chips_) ch->sched.begin();
  if (armed_) {
    for (unsigned c = 0; c < chips_.size(); ++c) {
      chips_[c]->hb_live = true;
      chips_[c]->sys.engine().call_at(cfg_.failover.heartbeat_period,
                                      [this, c] { emit_heartbeats(c, 0); });
    }
  }
  pe_->run();
  for (unsigned c = 0; c < chips_.size(); ++c) {
    Chip& ch = *chips_[c];
    ch.sched.finish();
    if (ch.crash_at != fault::kNever) {
      // The chip died mid-run: give every job it stranded a terminal
      // verdict (no notices -- a dead chip sends nothing) so the report
      // accounts for the loss instead of pretending.
      ch.sched.set_resolve_hook({});
      ch.crash_abandoned = ch.sched.abandon_unresolved(
          ch.crash_at, util::format("chip %u crashed at cycle %llu", c,
                                    static_cast<unsigned long long>(
                                        ch.crash_at)));
      part_.mark(c, machine::ChipHealth::Dead);
      ++stats_.dead_chips;
      stats_.abandoned_jobs += ch.crash_abandoned;
    } else if (!ch.sched.finished()) {
      throw std::logic_error("cluster run ended with unresolved jobs");
    }
  }
  stats_.chips = part_.chips();
  stats_.lookahead = pe_->lookahead();
  stats_.windows = pe_->stats().windows;
  for (auto& ch : chips_) {
    stats_.forwards += ch->forwards;
    stats_.notices += ch->notices_sent;
    stats_.xmesh_bytes += ch->bridge.bytes_sent();
    stats_.makespan = std::max(stats_.makespan, ch->sched.makespan());
    stats_.reforwarded += ch->reforwarded_jobs;
    stats_.quarantines += ch->quarantine_count;
    stats_.abandoned += ch->abandoned_jobs;
    stats_.dup_dropped += ch->dup_dropped;
    stats_.crc_rejects += ch->crc_rejects;
  }
  if (armed_) {
    // Fold every origin's health view into the partition map and surface
    // the sick-chip counters. During the run each chip acts only on its own
    // view, built from the heartbeats and notices it received.
    const unsigned k = part_.chips();
    for (unsigned h = 0; h < k; ++h) {
      std::uint64_t faults = 0, rehomed = 0, quarantined_by = 0;
      for (unsigned c = 0; c < k; ++c) {
        faults += chips_[c]->blamed[h];
        rehomed += chips_[c]->rehomed_from[h];
        if (chips_[c]->quarantined[h]) {
          ++quarantined_by;
          part_.mark(h, machine::ChipHealth::Quarantined);
        }
      }
      machine::Machine& m = chips_[h]->sys.machine();
      const auto expose = [&](const char* what, std::uint64_t v) {
        const trace::Counters::Id id =
            m.counters().define(util::format("sched.cluster.chip%u.%s", h, what),
                                trace::Counters::Kind::Monotonic);
        // With tracing armed, a sample at the makespan puts the verdict on
        // the chip's counter track.
        m.set_count(id, static_cast<double>(v), stats_.makespan);
      };
      expose("faults", faults);
      expose("reforwarded", rehomed);
      expose("quarantined", quarantined_by);
    }
  }
}

const sim::ParallelStats& ClusterScheduler::parallel_stats() const {
  return pe_->stats();
}

const Scheduler& ClusterScheduler::chip_sched(unsigned chip) const {
  return chips_.at(chip)->sched;
}

const std::vector<std::string>& ClusterScheduler::notices(unsigned chip) const {
  return chips_.at(chip)->notices;
}

void ClusterScheduler::write_trace(std::ostream& os) const {
  if (!cfg_.trace) {
    throw std::logic_error("write_trace needs ClusterConfig::trace");
  }
  std::vector<trace::ChromeProcess> procs;
  procs.reserve(chips_.size());
  for (unsigned c = 0; c < chips_.size(); ++c) {
    procs.push_back(trace::ChromeProcess{
        util::format("chip %u (%u,%u)", c, part_.chip_row(c),
                     part_.chip_col(c)),
        chips_[c]->sys.machine().tracer()});
  }
  write_chrome_trace(os, procs);
}

std::string ClusterScheduler::health_footer() const {
  const unsigned k = part_.chips();
  std::string out = util::format(
      "failover: reforwarded=%llu quarantines=%llu abandoned=%llu "
      "dup_dropped=%llu crc_rejects=%llu dead_chips=%u abandoned_jobs=%llu\n",
      static_cast<unsigned long long>(stats_.reforwarded),
      static_cast<unsigned long long>(stats_.quarantines),
      static_cast<unsigned long long>(stats_.abandoned),
      static_cast<unsigned long long>(stats_.dup_dropped),
      static_cast<unsigned long long>(stats_.crc_rejects), stats_.dead_chips,
      static_cast<unsigned long long>(stats_.abandoned_jobs));
  out += "cluster health:\n";
  for (unsigned h = 0; h < k; ++h) {
    const trace::Counters& cnt = chips_[h]->sched.counters();
    out += util::format(
        "  chip %u: %s  faults=%.0f reforwarded=%.0f quarantined=%.0f\n", h,
        machine::to_string(part_.health_of(h)),
        cnt.value(util::format("sched.cluster.chip%u.faults", h)),
        cnt.value(util::format("sched.cluster.chip%u.reforwarded", h)),
        cnt.value(util::format("sched.cluster.chip%u.quarantined", h)));
  }
  return out;
}

std::string ClusterScheduler::report() const {
  if (!ran_) throw std::logic_error("ClusterScheduler::report before run");
  // Wall-clock is deliberately absent: these bytes are the determinism
  // contract compared across reruns.
  std::string out = util::format(
      "=== epi-serve cluster %ux%u: %u chips x %ux%u cores ===\n",
      cfg_.chip_rows, cfg_.chip_cols, part_.chips(), part_.chip.rows,
      part_.chip.cols);
  out += util::format(
      "lookahead=%llu cycles  windows=%llu  makespan=%llu\n",
      static_cast<unsigned long long>(stats_.lookahead),
      static_cast<unsigned long long>(stats_.windows),
      static_cast<unsigned long long>(stats_.makespan));
  out += util::format(
      "xmesh: forwards=%llu notices=%llu bytes=%llu\n",
      static_cast<unsigned long long>(stats_.forwards),
      static_cast<unsigned long long>(stats_.notices),
      static_cast<unsigned long long>(stats_.xmesh_bytes));
  if (armed_) out += health_footer();
  for (unsigned c = 0; c < chips_.size(); ++c) {
    const Chip& ch = *chips_[c];
    out += util::format("\n--- chip %u (%u,%u) ---\n", c, part_.chip_row(c),
                        part_.chip_col(c));
    out += render_report(ch.sched);
    if (armed_) {
      if (!ch.decisions.empty()) {
        out += "recovery decisions:\n";
        for (const std::string& d : ch.decisions) out += "  " + d + "\n";
      }
      if (!ch.cfaults.empty()) {
        out += "cluster faults:\n";
        for (const fault::FaultReport& f : ch.cfaults) {
          out += "  " + fault::to_line(f) + "\n";
        }
      }
      const auto& inj = injector_->injections(c);
      if (!inj.empty()) {
        out += "injected:\n";
        for (const std::string& line : inj) out += "  " + line + "\n";
      }
    }
    if (!ch.notices.empty()) {
      out += "cross-chip notices:\n";
      for (const std::string& n : ch.notices) {
        out += "  " + n + "\n";
      }
    }
  }
  return out;
}

}  // namespace epi::sched
