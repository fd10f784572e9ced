#pragma once
// Seeded traffic generation and the on-disk workload-spec format.
//
// generate() turns a TrafficConfig into a concrete job stream using the
// repo's deterministic Rng: same seed, same stream, on every platform --
// the property every serving determinism test leans on. Interarrival gaps
// come from a geometric-ish integer sampler around `mean_interarrival`, job
// kinds and shapes from weighted draws, and a small fraction of jobs get
// injected launch failures and deadline/timeout SLOs so the scheduler's
// retry and drop paths see traffic in every run, not just in unit tests.
//
// save()/load() read and write a line-oriented text format (one `job`
// directive per line, `key=value` fields) so epi-serve can replay a recorded
// or hand-written workload byte-for-byte:
//
//   # epi-serve workload
//   job id=0 tenant=alice kind=matmul rows=2 cols=2 prio=1 arrival=0
//       deadline=0 timeout=800000 iters=2 block=16 failures=0
//
// (shown wrapped over two lines for width; real jobs are one line each).

#include <iosfwd>
#include <string>
#include <vector>

#include "sched/job.hpp"

namespace epi::sched {

struct TrafficConfig {
  unsigned jobs = 60;
  std::uint64_t seed = 1;
  sim::Cycles mean_interarrival = 30'000;  // mean gap between arrivals
  // Relative weights of each kind in the mix (need not sum to anything).
  unsigned matmul_weight = 1;
  unsigned stencil_weight = 1;
  unsigned offload_weight = 2;
  // The comm-bound shmem kinds (put_with_signal rotation / all-to-all), in
  // the default mix so serving traffic contends for mesh links and DMA
  // channels as well as FPUs and the eLink.
  unsigned cannon_weight = 1;
  unsigned transpose_weight = 1;
  double fail_prob = 0.10;       // chance a job gets 1-2 injected launch failures
  sim::Cycles timeout = 3'000'000;  // queue timeout applied to every job; 0=none
  /// Fraction of requests drawn as multi-kernel pipelines (sched/dag.hpp)
  /// instead of standalone jobs. 0 keeps the stream byte-identical to the
  /// pre-pipeline generator (no extra rng draws are made); each pipeline
  /// consumes 2-3 of the `jobs` budget (one JobSpec per stage).
  double pipeline_frac = 0.0;
  std::vector<std::string> tenants = {"alice", "bob", "carol"};
};

/// Deterministically expand a TrafficConfig into a job stream (ids 0..n-1,
/// non-decreasing arrivals).
[[nodiscard]] std::vector<JobSpec> generate(const TrafficConfig& cfg);

/// Serialise a stream in the workload-spec text format (deterministic:
/// fields in fixed order, one job per line).
[[nodiscard]] std::string save(const std::vector<JobSpec>& jobs);

/// Parse a workload spec; throws std::runtime_error with a compiler-style
/// "source:line: message" on malformed input (`source` is the file path for
/// load_file, or the caller-supplied stream name). Blank lines and `#`
/// comments are ignored.
[[nodiscard]] std::vector<JobSpec> load(std::istream& in,
                                        const std::string& source = "workload");
[[nodiscard]] std::vector<JobSpec> load_file(const std::string& path);

}  // namespace epi::sched
