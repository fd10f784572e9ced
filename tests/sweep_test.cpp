// The golden-sweep harness (bench/sweep.hpp): a point whose transcript
// differs on replay fails the sweep with exit status 1 and is named on
// stderr; the table and metrics come from each point's first run; --trace
// records the named point's first run and nothing else.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "sweep.hpp"

namespace {

using namespace epi;

int run_with(const bench::Sweep& s, std::vector<std::string> args) {
  args.insert(args.begin(), s.bench);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  const int status = bench::run_sweep(s, static_cast<int>(argv.size()), argv.data());
  testing::internal::GetCapturedStdout();
  return status;
}

std::string slurp(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return text.str();
}

TEST(SweepHarness, ReplayDivergenceExitsOneAndNamesThePoint) {
  unsigned runs = 0;
  bench::Sweep s;
  s.bench = "abl_harness";
  s.columns = {"point"};
  s.points.push_back({"steady point", [](bench::Run&) { return std::string("same"); }});
  s.points.push_back({"drifting point", [&runs](bench::Run& r) {
    r.metric("drifting", ++runs);
    return std::to_string(runs);
  }});
  const std::string metrics = testing::TempDir() + "sweep_harness_metrics.json";
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_with(s, {"--metrics=" + metrics}), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("drifting point"), std::string::npos) << err;
  EXPECT_EQ(err.find("steady point"), std::string::npos) << err;
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(slurp(metrics), "{\"bench\":\"abl_harness\",\"metrics\":{\"drifting\":1}}\n");
}

TEST(SweepHarness, TracesOnlyTheNamedPointsFirstRun) {
  std::vector<std::string> calls;  // "<point>:<traced>" per run
  bench::Sweep s;
  s.bench = "abl_harness";
  s.columns = {"point"};
  for (const char* label : {"a", "b"}) {
    s.points.push_back({label, [&calls, label](bench::Run& r) {
      const bool traced = r.machine().machine().tracer() != nullptr;
      calls.push_back(std::string(label) + (traced ? ":traced" : ":plain"));
      return std::string(label);
    }});
  }
  s.traced = std::string("b");  // not = "b": GCC 12 misreports -Wrestrict
  std::string trace = testing::TempDir();
  trace += "sweep_harness_trace.json";
  EXPECT_EQ(run_with(s, {"--trace=" + trace}), 0);
  EXPECT_EQ(calls, (std::vector<std::string>{"a:plain", "a:plain", "b:traced",
                                             "b:plain"}));
  EXPECT_FALSE(slurp(trace).empty());
}

}  // namespace
