#include "sweep.hpp"

#include <iostream>

#include "util/table.hpp"

namespace epi::bench {

host::System& Run::machine(bool traceable) {
  if (trace && traceable && traced == nullptr) {
    traced = std::make_unique<host::System>();
    traced->machine().enable_tracing();
    return *traced;
  }
  latest.reset();  // one untraced machine alive at a time
  latest = std::make_unique<host::System>();
  return *latest;
}

int run_sweep(const Sweep& sweep, int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv, sweep.bench);
  if (!args.positional.empty()) {
    std::cerr << sweep.bench << ": unexpected argument '" << args.positional.front()
              << "' (accepts --trace=FILE --csv=FILE --metrics=FILE)\n";
    return 2;
  }

  std::cout << sweep.title << "\n\n";
  util::Table table(sweep.columns);
  BenchReport report(sweep.bench);
  std::unique_ptr<host::System> traced;  // kept alive for finish_bench
  bool ok = true;
  for (const Point& p : sweep.points) {
    Run first;
    first.trace = args.tracing() && p.label == sweep.traced;
    const std::string transcript = p.run(first);
    Run replay;
    if (p.run(replay) != transcript) {
      std::cerr << sweep.bench << ": FAIL: " << p.label
                << " diverged between two identical runs\n";
      ok = false;
    }
    for (auto& cells : first.rows) table.add_row(std::move(cells));
    for (auto& [name, value] : first.metrics) report.metric(std::move(name), value);
    if (first.traced != nullptr) traced = std::move(first.traced);
  }
  table.print(std::cout);
  std::cout << "\n" << sweep.note << "\n";
  if (sweep.check && !sweep.check(report)) ok = false;

  finish_bench(args, traced.get(), report);
  return ok ? 0 : 1;
}

}  // namespace epi::bench
