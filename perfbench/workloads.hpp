#pragma once
// The benchmark's four workloads, each driven through the simulator's public
// API only. A Rep is one repetition on freshly built state:
//
//   setup()    builds the machine(s) and inputs        -> setup_s
//   run()      the single timed simulation call        -> run_s
//   observe()  untimed: checks, report digest, the simulated metrics
//   layers()   untimed: per-layer counters (tracer, scheduler, PDES)
//
// The harness (main.cpp) owns the clocks; nothing in this file reads one
// except the SpanLog, which records host-time spans around the calls into
// each layer for the traced invocation.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host-time spans (name, start, end, parent), kept in memory and written
/// out by the harness when the invocation ends.
class SpanLog {
public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  // index into spans(), -1 for a root
  };

  int begin(std::string name) {
    spans_.push_back(Span{std::move(name), Clock::now(), {}, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a null log records nothing (the untraced invocation).
class SpanScope {
public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->begin(std::move(name)) : -1) {}
  ~SpanScope() {
    if (log_) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  SpanLog* log_;
  int id_;
};

/// Ordered (name, value) pairs.
using Values = std::vector<std::pair<std::string, double>>;

/// What one repetition produced, checked against the warm-up and the pins.
struct Observed {
  std::string error;  // non-empty: a verification or accounting check failed
  Values sim;         // exact simulated metrics
  std::uint32_t digest = 0;  // CRC-32 of the output / report / decision log
  double jobs_submitted = 0;  // 0: no scheduler in this workload
};

struct Params {
  std::uint64_t seed = 1;
  bool tiny = false;     // self-test sizes
  bool verify = false;   // run the library's own output verification
  bool tracer = false;   // arm the machine tracer
  unsigned workers = 1;  // PDES workers (cluster only)
};

class Rep {
public:
  virtual ~Rep() = default;
  virtual void setup(SpanLog* spans) = 0;
  virtual void run() = 0;
  virtual Observed observe(SpanLog* spans) = 0;
  /// Per-layer counters of this repetition (exact). Call before observe().
  virtual Values layers() = 0;
};

struct Workload {
  std::string_view name;
  std::unique_ptr<Rep> (*make)(const Params&);
};

/// The four workloads; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Time `n` standalone host::System constructions (the per-chip machine the
/// cluster builds) as "host.construct" spans.
void probe_system_construction(SpanLog& spans, unsigned n);

}  // namespace perfbench
