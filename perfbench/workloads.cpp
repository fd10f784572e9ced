#include "workloads.hpp"

#include <span>

#include "core/matmul.hpp"
#include "core/stencil.hpp"
#include "fault/crc.hpp"
#include "host/system.hpp"
#include "sched/cluster.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/random.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "util/reference.hpp"

namespace perfbench {

using namespace epi;

namespace {

template <typename T>
std::uint32_t mix(std::uint32_t crc, std::span<const T> data) {
  return fault::crc32(std::as_bytes(data), crc);
}
std::uint32_t mix(std::uint32_t crc, double v) {
  return mix(crc, std::span<const double>(&v, 1));
}
std::uint32_t mix(std::uint32_t crc, const std::string& s) {
  return mix(crc, std::span<const char>(s));
}

/// The per-layer counters of one machine. The device-layer values come from
/// its tracer, so they are zero unless the repetition armed one.
Values tracer_layers(host::System& sys) {
  trace::ProfileReport prof;
  double flops = 0, dma = 0, mesh = 0, elink = 0, stall = 0;
  if (const trace::Tracer* t = sys.machine().tracer()) {
    prof = trace::attribute(*t, 0, sys.engine().now());
    const trace::Counters& c = t->counters();
    flops = c.value("flops");
    dma = c.value("dma.bytes");
    mesh = c.value("mesh.bytes");
    elink = c.value("elink.write.bytes") + c.value("elink.read.bytes");
    stall = c.value("elink.write.stall_cycles") + c.value("elink.read.stall_cycles");
  }
  const bool any = !prof.cores.empty();
  return {
      {"sim.events", static_cast<double>(sys.engine().events_processed())},
      {"core.compute_frac", any ? prof.compute_fraction() : 0.0},
      {"core.comm_frac", any ? prof.comm_fraction() : 0.0},
      {"core.dma_wait_frac", any ? prof.dma_wait_fraction() : 0.0},
      {"core.sync_frac", any ? prof.sync_fraction() : 0.0},
      {"core.flops", flops},
      {"dma.bytes", dma},
      {"mesh.bytes", mesh},
      {"elink.bytes", elink},
      {"elink.stall_cycles", stall},
  };
}

/// The stream's shape (arrivals, kinds, sizes, SLOs) comes from abl_sched's
/// fixed traffic seed; the benchmark seed decides which tenant submits each
/// job. generate() makes one draw per tenant pick whatever the list holds,
/// so every seed offers the same work and renders a different report.
constexpr std::uint64_t kTrafficSeed = 42;

std::vector<std::string> seeded_tenants(std::uint64_t seed) {
  std::vector<std::string> t = {"alice", "bob",   "carol", "dave",
                                "erin",  "frank", "grace", "heidi"};
  sim::Rng rng(seed);
  for (std::size_t i = t.size(); i > 1; --i) {
    std::swap(t[i - 1], t[static_cast<std::size_t>(rng.next_below(i))]);
  }
  return t;
}

/// A single kernel launch counts as one job whose turnaround is its run.
Values single_launch(sim::Cycles cycles) {
  const auto c = static_cast<double>(cycles);
  return {{"sim_cycles", c},
          {"jobs_completed", 1},
          {"turnaround_p50_cycles", c},
          {"turnaround_p99_cycles", c}};
}

std::unique_ptr<host::System> build_system(SpanLog* spans, bool tracer) {
  std::unique_ptr<host::System> sys;
  {
    SpanScope s(spans, "host.construct");
    sys = std::make_unique<host::System>();
  }
  if (tracer) sys->machine().enable_tracing();
  return sys;
}

/// completed + rejected + timed-out + failed must equal submitted, with no
/// job left Pending. Returns an error message, or empty.
std::string check_accounting(const std::vector<sched::JobRecord>& recs,
                             std::size_t submitted, std::vector<sim::Cycles>* tats) {
  std::size_t terminal = 0;
  for (const auto& r : recs) {
    if (r.verdict == sched::Verdict::Pending) {
      return "job " + std::to_string(r.spec.id) + " left Pending";
    }
    ++terminal;
    if (r.verdict == sched::Verdict::Completed) tats->push_back(r.turnaround());
  }
  if (terminal != submitted) {
    return "accounting: " + std::to_string(terminal) + " verdicts for " +
           std::to_string(submitted) + " submitted jobs";
  }
  return {};
}

// ---- matmul_offchip: Table VI, 512x512 paged over the eLink ---------------

class MatmulRep final : public Rep {
public:
  explicit MatmulRep(const Params& p)
      : p_(p), n_(p.tiny ? 128 : 512), group_(p.tiny ? 4 : 8), block_(p.tiny ? 16 : 32) {}

  void setup(SpanLog* spans) override { sys_ = build_system(spans, p_.tracer); }

  void run() override {
    r_ = core::run_matmul_offchip(*sys_, n_, group_, block_, core::Codegen::TunedAsm,
                                  p_.seed, p_.verify);
  }

  Observed observe(SpanLog* spans) override {
    SpanScope s(spans, "observe");
    Observed o;
    if (p_.verify && !r_.verified) {
      o.error = "matmul outside tolerance (max error " + std::to_string(r_.max_error) + ")";
    }
    // C is the third array the kernel's host code allocates in shared DRAM.
    const std::size_t elems = static_cast<std::size_t>(n_) * n_;
    sys_->shm_reset();
    (void)sys_->shm_alloc(elems * 4);
    (void)sys_->shm_alloc(elems * 4);
    const arch::Addr c_addr = sys_->shm_alloc(elems * 4);
    std::vector<float> c(elems);
    sys_->read_array<float>(c_addr, std::span<float>(c));
    if (p_.verify && o.error.empty()) {
      // The warm-up proves that the digested region is C: it must hold the
      // host reference product of the library's inputs, or a change to the
      // library's DRAM layout would leave the digest covering A, B or
      // padding.
      std::vector<float> a(elems), b(elems), ref(elems);
      util::fill_random(a, p_.seed);
      util::fill_random(b, p_.seed + 1);
      util::matmul_reference(a, b, ref, n_, n_, n_);
      const float err = util::max_abs_diff(c, ref);
      if (!(err <= r_.max_error)) {
        o.error = "digested DRAM region is not C (max error " + std::to_string(err) +
                  ", library's " + std::to_string(r_.max_error) + ")";
      }
    }
    o.digest = mix(0, std::span<const float>(c));
    o.digest = mix(mix(o.digest, r_.compute_fraction), r_.transfer_fraction);
    o.sim = single_launch(r_.cycles);
    return o;
  }

  Values layers() override { return tracer_layers(*sys_); }

private:
  Params p_;
  unsigned n_, group_, block_;
  std::unique_ptr<host::System> sys_;
  core::MatmulOffChipResult r_;
};

// ---- stencil_halo: Fig 6, 8x8 group, 20x20 per core, halo exchange on -----

class StencilRep final : public Rep {
public:
  explicit StencilRep(const Params& p) : p_(p), edge_(p.tiny ? 2 : 8) {
    cfg_.rows = 20;
    cfg_.cols = 20;
    cfg_.iters = p.tiny ? 10 : 400;
    cfg_.communicate = true;
  }

  void setup(SpanLog* spans) override { sys_ = build_system(spans, p_.tracer); }

  void run() override {
    ex_ = core::run_stencil_experiment(*sys_, edge_, edge_, cfg_, p_.seed, p_.verify);
  }

  Observed observe(SpanLog* spans) override {
    SpanScope s(spans, "observe");
    Observed o;
    if (p_.verify && !ex_.verified) {
      o.error = "stencil not verified (max error " + std::to_string(ex_.max_error) + ")";
    }
    // The final halo-inclusive tiles, read back from every core's scratchpad.
    std::vector<float> tile(std::size_t{cfg_.rows + 2} * (cfg_.cols + 2));
    o.digest = mix(0, ex_.result.compute_fraction);
    for (unsigned r = 0; r < edge_; ++r) {
      for (unsigned c = 0; c < edge_; ++c) {
        const arch::Addr a =
            sys_->machine().mem().map().global({r, c}, core::StencilLayout::kGrid);
        sys_->read_array<float>(a, std::span<float>(tile));
        o.digest = mix(o.digest, std::span<const float>(tile));
      }
    }
    o.sim = single_launch(ex_.result.cycles);
    return o;
  }

  Values layers() override { return tracer_layers(*sys_); }

private:
  Params p_;
  unsigned edge_;
  core::StencilConfig cfg_;
  std::unique_ptr<host::System> sys_;
  core::StencilExperiment ex_;
};

// ---- serve_overload: abl_sched's overload point, interarrival 12k ---------

class ServeRep final : public Rep {
public:
  explicit ServeRep(const Params& p) : p_(p) {
    tc_.jobs = p.tiny ? 40 : 2600;
    tc_.seed = kTrafficSeed;
    tc_.tenants = seeded_tenants(p.seed);
    tc_.mean_interarrival = 12'000;
  }

  void setup(SpanLog* spans) override {
    sys_ = build_system(spans, p_.tracer);
    sc_ = std::make_unique<sched::Scheduler>(*sys_);
    std::vector<sched::JobSpec> jobs;
    {
      SpanScope s(spans, "sched.generate");
      jobs = sched::generate(tc_);
    }
    SpanScope s(spans, "sched.submit");
    submitted_ = jobs.size();
    for (auto& spec : jobs) sc_->submit(std::move(spec));
  }

  void run() override { sc_->run(); }

  Observed observe(SpanLog* spans) override {
    Observed o;
    sched::RunStats rs;
    std::string report;
    {
      SpanScope s(spans, "sched.report");
      rs = sched::summarise(*sc_);
      report = sched::render_report(*sc_);
    }
    std::vector<sim::Cycles> tats;
    o.error = check_accounting(sc_->records(), submitted_, &tats);
    if (o.error.empty() && (rs.completed != tats.size() ||
                            rs.turnaround_p50 != sched::percentile(tats, 50) ||
                            rs.turnaround_p99 != sched::percentile(tats, 99))) {
      o.error = "report summary disagrees with the job records";
    }
    o.digest = mix(0, report);
    for (const auto& line : sc_->event_log()) o.digest = mix(o.digest, line);
    o.sim = {{"sim_cycles", static_cast<double>(sc_->makespan())},
             {"jobs_completed", rs.completed},
             {"turnaround_p50_cycles", static_cast<double>(rs.turnaround_p50)},
             {"turnaround_p99_cycles", static_cast<double>(rs.turnaround_p99)}};
    o.jobs_submitted = static_cast<double>(submitted_);
    return o;
  }

  Values layers() override {
    Values v = tracer_layers(*sys_);
    const sched::RunStats rs = sched::summarise(*sc_);
    v.insert(v.end(), {{"sched.jobs_rejected", rs.rejected},
                       {"sched.jobs_timed_out", rs.timed_out},
                       {"sched.launch_retries", sc_->counters().value("sched.launch.retries")},
                       {"sched.peak_resident", sc_->peak_resident()},
                       {"sched.utilisation", sc_->utilisation()}});
    return v;
  }

private:
  Params p_;
  sched::TrafficConfig tc_;
  std::size_t submitted_ = 0;
  std::unique_ptr<host::System> sys_;
  std::unique_ptr<sched::Scheduler> sc_;  // declared after sys_: destroyed first
};

// ---- cluster_4x4: 16 chips, conservative PDES, remote-frac 0.25 -----------

class ClusterRep final : public Rep {
public:
  explicit ClusterRep(const Params& p) : p_(p) {
    cfg_.chip_rows = cfg_.chip_cols = p.tiny ? 2 : 4;
    cfg_.traffic.jobs = p.tiny ? 8 : 80;
    cfg_.traffic.seed = kTrafficSeed;
    cfg_.traffic.tenants = seeded_tenants(p.seed);
    cfg_.remote_frac = 0.25;
    cfg_.trace = p.tracer;
  }

  void setup(SpanLog* spans) override {
    SpanScope s(spans, "cluster.construct");
    cs_ = std::make_unique<sched::ClusterScheduler>(cfg_);
  }

  void run() override { cs_->run(p_.workers); }

  Observed observe(SpanLog* spans) override {
    Observed o;
    std::string report;
    {
      SpanScope s(spans, "sched.report");
      report = cs_->report();
    }
    const unsigned chips = cs_->partition().chips();
    std::vector<sched::JobRecord> recs;
    for (unsigned c = 0; c < chips; ++c) {
      const auto& r = cs_->chip_sched(c).records();
      recs.insert(recs.end(), r.begin(), r.end());
    }
    const std::size_t submitted = std::size_t{chips} * cfg_.traffic.jobs;
    std::vector<sim::Cycles> tats;
    o.error = check_accounting(recs, submitted, &tats);
    o.digest = mix(0, report);
    o.sim = {{"sim_cycles", static_cast<double>(cs_->stats().makespan)},
             {"jobs_completed", static_cast<double>(tats.size())},
             {"turnaround_p50_cycles", static_cast<double>(sched::percentile(tats, 50))},
             {"turnaround_p99_cycles", static_cast<double>(sched::percentile(tats, 99))}};
    o.jobs_submitted = static_cast<double>(submitted);
    return o;
  }

  Values layers() override {
    const unsigned chips = cs_->partition().chips();
    double rejected = 0, timed_out = 0, retries = 0, peak = 0, util = 0;
    double flops = 0, dma = 0, mesh = 0, elink = 0, stall = 0;
    for (unsigned c = 0; c < chips; ++c) {
      const sched::Scheduler& s = cs_->chip_sched(c);
      const sched::RunStats rs = sched::summarise(s);
      rejected += rs.rejected;
      timed_out += rs.timed_out;
      // With ClusterConfig::trace the scheduler's registry is the chip
      // tracer's, so the device-layer counters are readable here too.
      const trace::Counters& k = s.counters();
      retries += k.value("sched.launch.retries");
      peak = std::max<double>(peak, s.peak_resident());
      util += s.utilisation() / chips;
      flops += k.value("flops");
      dma += k.value("dma.bytes");
      mesh += k.value("mesh.bytes");
      elink += k.value("elink.write.bytes") + k.value("elink.read.bytes");
      stall += k.value("elink.write.stall_cycles") + k.value("elink.read.stall_cycles");
    }
    const sim::ParallelStats& ps = cs_->parallel_stats();
    const sched::ClusterStats& st = cs_->stats();
    return {{"core.flops", flops},
            {"dma.bytes", dma},
            {"mesh.bytes", mesh},
            {"elink.bytes", elink},
            {"elink.stall_cycles", stall},
            {"sched.jobs_rejected", rejected},
            {"sched.jobs_timed_out", timed_out},
            {"sched.launch_retries", retries},
            {"sched.peak_resident", peak},
            {"sched.utilisation", util},
            {"pdes.windows", static_cast<double>(ps.windows)},
            {"pdes.barriers", static_cast<double>(ps.barriers)},
            {"pdes.messages", static_cast<double>(ps.messages)},
            {"cluster.forwards", static_cast<double>(st.forwards)},
            {"cluster.notices", static_cast<double>(st.notices)},
            {"xmesh.bytes", static_cast<double>(st.xmesh_bytes)}};
  }

private:
  Params p_;
  sched::ClusterConfig cfg_;
  std::unique_ptr<sched::ClusterScheduler> cs_;
};

template <typename R>
std::unique_ptr<Rep> make(const Params& p) {
  return std::make_unique<R>(p);
}

constexpr Workload kWorkloads[] = {
    {"matmul_offchip", &make<MatmulRep>},
    {"stencil_halo", &make<StencilRep>},
    {"serve_overload", &make<ServeRep>},
    {"cluster_4x4", &make<ClusterRep>},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void probe_system_construction(SpanLog& spans, unsigned n) {
  // All alive at once, as in the cluster: freed DRAM would otherwise be
  // recycled by the allocator and the later constructions would look cheap.
  std::vector<std::unique_ptr<host::System>> chips(n);
  for (auto& chip : chips) {
    SpanScope s(&spans, "host.construct");
    chip = std::make_unique<host::System>();
  }
}

}  // namespace perfbench
