// Repeats one perfbench workload's Rep::setup + Rep::run and nothing else,
// so a sampler sees only the simulator's own host time: a whole perfbench
// process also spends a large share of its samples in the page-fault and
// calibration kernels that normalise setup_s and run_s. Build it against
// the libraries perfbench/run.py leaves in .bench_build/perfbench (README,
// "Profiling host time"), then run
//
//     loop <workload> [repetitions]

#include <cstdio>
#include <cstdlib>

#include "workloads.hpp"

int main(int argc, char** argv) {
  const perfbench::Workload* w = argc > 1 ? perfbench::find_workload(argv[1]) : nullptr;
  if (w == nullptr) {
    std::fprintf(stderr, "usage: loop <workload> [repetitions]\n");
    return 2;
  }
  const long reps = argc > 2 ? std::strtol(argv[2], nullptr, 10) : 20;
  const perfbench::Params p;
  for (long i = 0; i < reps; ++i) {
    auto rep = w->make(p);
    rep->setup(nullptr);
    rep->run();
  }
  return 0;
}
