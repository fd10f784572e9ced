// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tiny] [--reps K] [--pins FILE] [--spans-out FILE]
//             [--commit ID] [--dump-pins]
//
// --trace 0 times the workload's simulation call with every tracer off and
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every repetition runs on freshly built state; see README.md for the
// measurement rules and perfbench/run.py for the build-and-run wrapper.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <queue>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  unsigned reps = 0;  // 0: as many as fit in `seconds`
  std::string pins;
  std::string spans_out;
  std::string commit = "unknown";
  bool dump_pins = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = next();
      else if (a == "--seed") o.seed = std::stoull(next());
      else if (a == "--seconds") o.seconds = std::stod(next());
      else if (a == "--trace") o.trace = next() != "0";
      else if (a == "--tiny") o.tiny = true;
      else if (a == "--reps") o.reps = static_cast<unsigned>(std::stoul(next()));
      else if (a == "--pins") o.pins = next();
      else if (a == "--spans-out") o.spans_out = next();
      else if (a == "--commit") o.commit = next();
      else if (a == "--dump-pins") o.dump_pins = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host times are reported in reference seconds: seconds as measured, times
/// a reference duration over a frozen probe's duration measured around the
/// same repetition. run_s divides by the calibration kernel, setup_s by the
/// page-fault kernel (both below). The reference durations only fix the
/// unit: round figures near the probes' medians over the acceptance runs in
/// perfbench/README.md (Noise), where reference and measured seconds come
/// out close.
constexpr double kReferenceCalib = 0.0100;
constexpr double kReferencePage = 0.0200;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Shortest text that reads back as exactly `v`.
std::string fmt_value(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08" PRIx32, v);
  return buf;
}

// ---- pinned simulated values ------------------------------------------------
// One line per (workload, size, seed):  W full|tiny SEED digest=HEX m=v ...

using PinLine = std::vector<std::pair<std::string, std::string>>;

std::string pin_key(const Options& o) {
  return o.workload + " " + (o.tiny ? "tiny" : "full") + " " + std::to_string(o.seed);
}

PinLine observed_pins(const Observed& obs) {
  PinLine line{{"digest", hex(obs.digest)}};
  for (const auto& [k, v] : obs.sim) line.emplace_back(k, fmt_value(v));
  return line;
}

std::map<std::string, PinLine> load_pins(const std::string& path) {
  std::map<std::string, PinLine> pins;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string w, size, seed, kv;
    ss >> w >> size >> seed;
    PinLine& p = pins[w + " " + size + " " + seed];
    while (ss >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) throw std::runtime_error("bad pin field " + kv);
      p.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
  return pins;
}

/// Names of the values in `got` that differ from `want` (same key order).
std::vector<std::string> differing(const PinLine& want, const PinLine& got) {
  std::vector<std::string> out;
  for (const auto& [k, v] : want) {
    auto it = std::find_if(got.begin(), got.end(), [&](const auto& g) { return g.first == k; });
    if (it == got.end() || it->second != v) {
      out.push_back(k + " (expected " + v + ", got " +
                    (it == got.end() ? std::string("nothing") : it->second) + ")");
    }
  }
  return out;
}

// ---- repetitions --------------------------------------------------------------

/// Calibration kernel: a fixed mix of binary-heap and hash-map work shaped
/// like the simulator's own host code (event queue, lookups, branches). Its
/// duration measures how fast this machine runs such code right now. It
/// defines the unit of the reported host times: change it and every
/// recorded host time changes scale.
double calibration_kernel() {
  const auto t0 = Clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  std::uint64_t x = 12345, acc = 0;
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x & 0xffffffffu);
    if (heap.size() > 512) {
      acc += heap.top();
      heap.pop();
    }
    auto& v = table[static_cast<std::uint32_t>(x % 4096)];
    if ((x >> 33) & 1) {
      ++v;
    } else {
      acc ^= v;
    }
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_between(t0, Clock::now());
}

/// Page-fault kernel: maps 32 MB of fresh anonymous memory and zero-fills
/// it, as every host::System does for its external DRAM. Set-up time is
/// mostly such page faults, which other tenants slow down by a different
/// factor than the simulator's own code, so setup_s is divided by this
/// kernel rather than by the calibration kernel. Frozen like that one.
double page_fault_kernel() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  const auto t0 = Clock::now();
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("page-fault kernel: mmap failed");
  std::memset(p, 0, kBytes);
  const double s = seconds_between(t0, Clock::now());
  munmap(p, kBytes);
  return s;
}

struct RepResult {
  double setup_s = 0;      // reference seconds
  double run_s = 0;        // reference seconds
  double setup_raw_s = 0;  // seconds as measured
  double run_raw_s = 0;
  double calib_s = 0;      // calibration kernel: mean of before and after
  double page_s = 0;       // page-fault kernel: mean of before and after
  Observed obs;
  Values layers;
};

RepResult one_rep(const Workload& w, const Params& p, SpanLog* spans, bool want_layers) {
  SpanScope root(spans, "rep");
  auto rep = w.make(p);
  RepResult r;
  const double page_before = page_fault_kernel();
  const double calib_before = calibration_kernel();
  const auto t0 = Clock::now();
  rep->setup(spans);
  const auto t1 = Clock::now();
  {
    SpanScope s(spans, "run");
    rep->run();
  }
  const auto t2 = Clock::now();
  r.calib_s = 0.5 * (calib_before + calibration_kernel());
  if (want_layers) r.layers = rep->layers();
  r.obs = rep->observe(spans);
  // Machines freed first, so the kernel's 32 MB never adds to peak_rss_mb.
  rep.reset();
  r.page_s = 0.5 * (page_before + page_fault_kernel());
  r.setup_raw_s = seconds_between(t0, t1);
  r.run_raw_s = seconds_between(t1, t2);
  r.setup_s = r.setup_raw_s * kReferencePage / r.page_s;
  r.run_s = r.run_raw_s * kReferenceCalib / r.calib_s;
  return r;
}

/// Per-rep checks against the warm-up's reference: returns the list of
/// differences (empty = the repetition passed).
std::vector<std::string> check_rep(const Observed& ref, const Observed& got) {
  std::vector<std::string> bad;
  if (!got.error.empty()) bad.push_back(got.error);
  for (const auto& d : differing(observed_pins(ref), observed_pins(got))) bad.push_back(d);
  return bad;
}

struct Tally {
  unsigned attempted = 0;
  unsigned failed = 0;
  bool reference_ok = true;

  void record(const char* phase, unsigned i, const Observed& ref, const RepResult& r) {
    ++attempted;
    std::vector<std::string> bad = check_rep(ref, r.obs);
    if (!reference_ok) bad.push_back("the warm-up reference failed its checks");
    std::printf("# %s rep %u setup_s=%s run_s=%s setup_raw_s=%s run_raw_s=%s calib_s=%s "
                "page_s=%s digest=%s",
                phase, i, fmt_value(r.setup_s).c_str(), fmt_value(r.run_s).c_str(),
                fmt_value(r.setup_raw_s).c_str(), fmt_value(r.run_raw_s).c_str(),
                fmt_value(r.calib_s).c_str(), fmt_value(r.page_s).c_str(),
                hex(r.obs.digest).c_str());
    for (const auto& [k, v] : r.obs.sim) std::printf(" %s=%s", k.c_str(), fmt_value(v).c_str());
    std::printf("\n");
    if (!bad.empty()) {
      ++failed;
      for (const auto& b : bad) {
        std::fprintf(stderr, "perfbench: FAIL: %s rep %u: %s\n", phase, i, b.c_str());
      }
    }
  }
};

/// Run repetitions until `budget` seconds have passed (at least `min_reps`),
/// or exactly `fixed` when non-zero.
template <typename Fn>
void repeat(double budget, unsigned min_reps, unsigned fixed, Fn&& fn) {
  const auto start = Clock::now();
  for (unsigned i = 0;; ++i) {
    if (fixed ? i >= fixed
              : (i >= min_reps && seconds_between(start, Clock::now()) >= budget)) {
      break;
    }
    fn(i);
  }
}

// ---- metric tables -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"},
    {"jobs_completed", "count"},
    {"turnaround_p50_cycles", "cycles"},
    {"turnaround_p99_cycles", "cycles"},
    {"ok_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"host.calib_s", "s"},
    {"host.page_s", "s"},
    {"host.run_raw_s", "s"},
    {"host.setup_raw_s", "s"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns/event"},
    {"host.construct_s", "s"},
    {"core.compute_frac", "frac"},
    {"core.comm_frac", "frac"},
    {"core.dma_wait_frac", "frac"},
    {"core.sync_frac", "frac"},
    {"core.flops", "flop"},
    {"dma.bytes", "B"},
    {"mesh.bytes", "B"},
    {"elink.bytes", "B"},
    {"elink.stall_cycles", "cycles"},
    {"sched.generate_s", "s"},
    {"sched.submit_s", "s"},
    {"sched.report_s", "s"},
    {"sched.host_us_per_job", "us/job"},
    {"sched.jobs_rejected", "count"},
    {"sched.jobs_timed_out", "count"},
    {"sched.launch_retries", "count"},
    {"sched.peak_resident", "count"},
    {"sched.utilisation", "frac"},
    {"cluster.construct_s", "s"},
    {"cluster.forwards", "count"},
    {"cluster.notices", "count"},
    {"xmesh.bytes", "B"},
    {"pdes.windows", "count"},
    {"pdes.barriers", "count"},
    {"pdes.messages", "count"},
    {"pdes.host_us_per_window", "us/window"},
    {"pdes.speedup_wN", "x"},
    {"pdes.speedup_workers", "count"},
    {"trace.overhead_frac", "frac"},
};

void print_result(bool correct, const Tally& t, std::span<const MetricDef> defs,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, \"metrics\": {",
              correct ? "true" : "false", t.attempted, t.failed);
  const char* sep = "";
  for (const auto& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep, d.name,
                fmt_value(v).c_str(), d.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Median over repetitions of the summed duration of spans named `name`.
double span_median(const SpanLog& log, const std::string& name) {
  const auto& sp = log.spans();
  std::vector<double> per_rep;
  double acc = 0;
  bool seen = false, in_rep = false;
  for (const auto& s : sp) {
    if (s.name == "rep") {
      if (in_rep && seen) per_rep.push_back(acc);
      in_rep = true;
      acc = 0;
      seen = false;
    } else if (s.name == name) {
      acc += seconds_between(s.start, s.end);
      seen = true;
    }
  }
  if (in_rep && seen) per_rep.push_back(acc);
  return median(per_rep);
}

void write_spans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& sp = log.spans();
  const auto origin = sp.empty() ? Clock::time_point{} : sp.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < sp.size(); ++i) {
    out << "{\"id\": " << i << ", \"name\": \"" << sp[i].name
        << "\", \"start_s\": " << fmt_value(seconds_between(origin, sp[i].start))
        << ", \"end_s\": " << fmt_value(seconds_between(origin, sp[i].end))
        << ", \"parent\": " << sp[i].parent << "}" << (i + 1 < sp.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int bench(const Options& o) {
  const Workload* w = find_workload(o.workload);
  if (!w) usage("unknown workload " + o.workload);
  const bool cluster = o.workload == "cluster_4x4";
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf("# perfbench workload=%s seed=%" PRIu64 " size=%s trace=%d commit=%s "
              "build=%s compiler=%s nproc=%u\n",
              o.workload.c_str(), o.seed, o.tiny ? "tiny" : "full", o.trace ? 1 : 0,
              o.commit.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc);

  Params base;
  base.seed = o.seed;
  base.tiny = o.tiny;

  // Untimed warm-up with the library's own verification: the reference every
  // timed repetition must reproduce exactly.
  Params wp = base;
  wp.verify = true;
  const RepResult warm = one_rep(*w, wp, nullptr, false);
  const Observed& ref = warm.obs;
  Tally tally;
  if (!ref.error.empty()) {
    std::fprintf(stderr, "perfbench: FAIL: warm-up: %s\n", ref.error.c_str());
    tally.reference_ok = false;
  }
  if (o.dump_pins) {
    std::printf("%s", pin_key(o).c_str());
    for (const auto& [k, v] : observed_pins(ref)) std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
    return tally.reference_ok ? 0 : 1;
  }
  if (!o.pins.empty()) {
    const auto pins = load_pins(o.pins);
    auto it = pins.find(pin_key(o));
    if (it != pins.end()) {
      for (const auto& d : differing(it->second, observed_pins(ref))) {
        std::fprintf(stderr, "perfbench: FAIL: pinned value differs: %s\n", d.c_str());
        tally.reference_ok = false;
      }
    } else {
      std::printf("# no pinned values for %s; checking run-to-run agreement only\n",
                  pin_key(o).c_str());
    }
  }

  std::map<std::string, double> out;
  if (!o.trace) {
    std::vector<double> setup, run, setup_raw, run_raw, calib, page;
    repeat(o.seconds, 3, o.reps, [&](unsigned i) {
      const RepResult r = one_rep(*w, base, nullptr, false);
      setup.push_back(r.setup_s);
      run.push_back(r.run_s);
      setup_raw.push_back(r.setup_raw_s);
      run_raw.push_back(r.run_raw_s);
      calib.push_back(r.calib_s);
      page.push_back(r.page_s);
      tally.record("timed", i, ref, r);
    });
    std::printf("# as measured: run_s=%s setup_s=%s calib_s=%s page_s=%s\n",
                fmt_value(median(run_raw)).c_str(), fmt_value(median(setup_raw)).c_str(),
                fmt_value(median(calib)).c_str(), fmt_value(median(page)).c_str());
    out["run_s"] = median(run);
    out["setup_s"] = median(setup);
    out["peak_rss_mb"] = peak_rss_mb();
    for (const auto& [k, v] : ref.sim) out[k] = v;
    out["ok_frac"] = static_cast<double>(tally.attempted - tally.failed) / tally.attempted;
    const bool correct = tally.reference_ok && tally.failed == 0;
    print_result(correct, tally, kEndToEnd, out);
    return 0;
  }

  // ---- traced invocation: per-layer metrics only ----------------------------
  SpanLog spans;
  const double budget_plain = o.seconds * (cluster ? 0.4 : 0.5);
  const double budget_traced = o.seconds * (cluster ? 0.3 : 0.5);
  std::vector<double> run_plain, run_plain_raw, setup_plain_raw, calib_plain, page_plain,
      run_traced;
  // Tracers off, spans on: the layer spans and the per-unit host costs.
  repeat(budget_plain, 3, o.reps, [&](unsigned i) {
    const RepResult r = one_rep(*w, base, &spans, false);
    run_plain.push_back(r.run_s);
    run_plain_raw.push_back(r.run_raw_s);
    setup_plain_raw.push_back(r.setup_raw_s);
    calib_plain.push_back(r.calib_s);
    page_plain.push_back(r.page_s);
    tally.record("spans", i, ref, r);
    if (cluster) {
      SpanScope s(&spans, "rep");
      probe_system_construction(spans, o.tiny ? 4 : 16);
    }
  });
  // Tracers armed: counters and cycle attribution, and tracing's own cost.
  // The simulated outcome must not change when tracing is on.
  Params tp = base;
  tp.tracer = true;
  repeat(budget_traced, 1, o.reps, [&](unsigned i) {
    const RepResult r = one_rep(*w, tp, nullptr, true);
    run_traced.push_back(r.run_s);
    if (i == 0) {
      for (const auto& kv : r.layers) out[kv.first] = kv.second;
    }
    tally.record("traced", i, ref, r);
  });
  const double plain = median(run_plain);
  // Spans are seconds as measured; scale them like the repetitions:
  // constructions (page-fault bound) by the page-fault kernel, the rest by
  // the calibration kernel.
  const double calib = median(calib_plain);
  const double page = median(page_plain);
  out["host.calib_s"] = calib;
  out["host.page_s"] = page;
  out["host.run_raw_s"] = median(run_plain_raw);
  out["host.setup_raw_s"] = median(setup_plain_raw);
  out["sim.host_ns_per_event"] = out["sim.events"] > 0 ? plain * 1e9 / out["sim.events"] : 0;
  for (const char* span : {"host.construct", "cluster.construct"}) {
    out[std::string(span) + "_s"] = span_median(spans, span) * kReferencePage / page;
  }
  for (const char* span : {"sched.generate", "sched.submit", "sched.report"}) {
    out[std::string(span) + "_s"] = span_median(spans, span) * kReferenceCalib / calib;
  }
  out["sched.host_us_per_job"] = ref.jobs_submitted > 0 ? plain * 1e6 / ref.jobs_submitted : 0;
  out["trace.overhead_frac"] = median(run_traced) / plain - 1.0;
  if (cluster) {
    out["pdes.host_us_per_window"] =
        out["pdes.windows"] > 0 ? plain * 1e6 / out["pdes.windows"] : 0;
    // Worker comparison on the same inputs, alternating which side runs
    // first; every report must be byte-identical to the warm-up's.
    const unsigned n = std::min(4u, nproc);
    Params pn = base;
    pn.workers = n;
    std::vector<double> w1, wn;
    repeat(o.seconds * 0.3, 2, o.reps, [&](unsigned i) {
      for (unsigned side = 0; side < 2; ++side) {
        const bool one = (side == 0) == (i % 2 == 0);
        const RepResult r = one_rep(*w, one ? base : pn, nullptr, false);
        (one ? w1 : wn).push_back(r.run_s);
        tally.record(one ? "workers1" : "workersN", i, ref, r);
      }
    });
    out["pdes.speedup_wN"] = median(w1) / median(wn);
    out["pdes.speedup_workers"] = n;
  }
  if (!o.spans_out.empty()) write_spans(spans, o.spans_out);
  const bool correct = tally.reference_ok && tally.failed == 0;
  print_result(correct, tally, kPerLayer, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "perfbench: refusing to run: built without NDEBUG. Host timings of an\n"
               "unoptimised build are meaningless; configure with\n"
               "-DCMAKE_BUILD_TYPE=Release (perfbench/run.py does this).\n");
  return 2;
#else
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::bench(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
#endif
}
