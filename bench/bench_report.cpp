#include "bench_report.hpp"

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "host/system.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"

namespace epi::bench {

BenchArgs BenchArgs::parse(int argc, char** argv, std::string bench) {
  BenchArgs a;
  a.bench = std::move(bench);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (cli::value_flag(arg, "--trace", a.trace_path) ||
        cli::value_flag(arg, "--csv", a.csv_path) ||
        cli::value_flag(arg, "--metrics", a.metrics_path)) {
      continue;
    }
    a.positional.emplace_back(arg);
  }
  return a;
}

std::optional<double> BenchArgs::seconds(std::string_view name,
                                         double fallback) const {
  if (positional.empty()) return fallback;
  try {
    return cli::seconds(name, positional.front());
  } catch (const cli::UsageError& e) {
    std::cerr << bench << ": " << e.what() << "\n";
    return std::nullopt;
  }
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

double BenchReport::value(std::string_view name) const {
  for (const auto& [n, v] : metrics_) {
    if (n == name) return v;
  }
  throw std::out_of_range("no metric named " + std::string(name));
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

void finish_bench(const BenchArgs& args, host::System* traced, BenchReport& report,
                  bool profile) {
  const trace::Tracer* tracer = traced != nullptr ? traced->machine().tracer() : nullptr;
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
    trace::ProfileReport attribution;
    if (profile) attribution = trace::attribute(*tracer, 0, traced->engine().now());
    trace::write_summary(std::cout, *tracer, profile ? &attribution : nullptr);
  }
  report.write(args.metrics_path);
}

}  // namespace epi::bench
