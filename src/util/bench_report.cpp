#include "util/bench_report.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace epi::util {

namespace {

bool take_value_flag(std::string_view arg, std::string_view flag, std::string& out) {
  if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    out = std::string(arg.substr(flag.size() + 1));
    return true;
  }
  return false;
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv, std::string bench,
                           std::string metrics_path) {
  BenchArgs a;
  a.bench = std::move(bench);
  a.metrics_path =
      metrics_path.empty() ? a.bench + "_trace.json" : std::move(metrics_path);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (take_value_flag(arg, "--trace", a.trace_path) ||
        take_value_flag(arg, "--csv", a.csv_path) ||
        take_value_flag(arg, "--metrics", a.metrics_path)) {
      continue;
    }
    if (arg == "--no-metrics") {
      a.metrics_path.clear();
      continue;
    }
    a.positional.emplace_back(arg);
  }
  return a;
}

bool BenchArgs::reject_positional() const {
  if (positional.empty()) return false;
  std::cerr << bench << ": unexpected argument '" << positional.front()
            << "' (accepts --trace=FILE --csv=FILE --metrics=FILE --no-metrics)\n";
  return true;
}

double BenchArgs::positional_double(std::size_t i, double fallback) const {
  if (i >= positional.size()) return fallback;
  return std::atof(positional[i].c_str());
}

void BenchReport::metric(std::string name, double value) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(std::move(name), value);
}

void BenchReport::add_counters(const trace::Counters& counters) {
  for (trace::Counters::Id id = 0; id < counters.size(); ++id) {
    const std::string& name = counters.name(id);
    if (name.find('@') != std::string::npos) continue;
    metric("counter." + name, counters.value(id));
  }
}

void BenchReport::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write metrics file: " + path);
  os << "{\"bench\":\"" << trace::json_escape(bench_) << "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << trace::json_escape(name) << "\":" << trace::format_number(value);
  }
  os << "}}\n";
}

void finish_bench(const BenchArgs& args, const trace::Tracer* tracer,
                  BenchReport& report, const trace::ProfileReport* profile) {
  if (tracer != nullptr) {
    if (!args.trace_path.empty()) {
      std::ofstream os(args.trace_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write trace file: " + args.trace_path);
      trace::write_chrome_trace(os, *tracer);
      std::cout << "\nWrote Perfetto trace to " << args.trace_path
                << " (open at ui.perfetto.dev; ts is in cycles)\n";
    }
    if (!args.csv_path.empty()) {
      std::ofstream os(args.csv_path, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write CSV file: " + args.csv_path);
      trace::write_counters_csv(os, tracer->counters());
    }
    report.add_counters(tracer->counters());
    std::cout << "\n";
    trace::write_summary(std::cout, *tracer, profile);
  }
  report.write(args.metrics_path);
}

}  // namespace epi::util
