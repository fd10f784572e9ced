// epi-dag tests: job-graph validation/expansion, co-placement, tensor
// handoff transport selection, stage pipelining vs whole-graph serialisation,
// upstream-failure cascades, and pipelined-run determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "sched/dag.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace {

using namespace epi;

// ---- graph validation and expansion ----------------------------------------

sched::JobGraph two_stage_graph(std::uint32_t id = 1) {
  sched::JobGraph g;
  g.id = id;
  g.stages = {{sched::JobKind::Offload, 2, 2, 1, 16},
              {sched::JobKind::Offload, 2, 2, 1, 16}};
  g.edges = {{0, 1, 4096}};
  return g;
}

TEST(JobGraphs, ValidateRejectsMalformedGraphs) {
  sched::JobGraph g = two_stage_graph();
  EXPECT_NO_THROW(sched::validate_graph(g));

  sched::JobGraph zero_id = g;
  zero_id.id = 0;
  EXPECT_THROW(sched::validate_graph(zero_id), std::invalid_argument);

  sched::JobGraph empty = g;
  empty.stages.clear();
  empty.edges.clear();
  EXPECT_THROW(sched::validate_graph(empty), std::invalid_argument);

  sched::JobGraph custom = g;
  custom.stages[1].kind = sched::JobKind::Custom;
  EXPECT_THROW(sched::validate_graph(custom), std::invalid_argument);

  sched::JobGraph backward = g;
  backward.edges = {{1, 0, 4096}};  // must be forward-directed (acyclic)
  EXPECT_THROW(sched::validate_graph(backward), std::invalid_argument);

  sched::JobGraph dangling = g;
  dangling.edges = {{0, 7, 4096}};
  EXPECT_THROW(sched::validate_graph(dangling), std::invalid_argument);

  sched::JobGraph hollow = g;
  hollow.edges = {{0, 1, 0}};
  EXPECT_THROW(sched::validate_graph(hollow), std::invalid_argument);

  sched::JobGraph tall = g;
  tall.stages.assign(9, {sched::JobKind::Offload, 1, 1, 1, 16});
  tall.edges.clear();
  EXPECT_THROW(sched::validate_graph(tall), std::invalid_argument);
}

TEST(JobGraphs, ExpandFillsStageAndDepFields) {
  sched::JobGraph g;
  g.id = 9;
  g.tenant = "dana";
  g.priority = 2;
  g.arrival = 1000;
  g.deadline = 5'000'000;
  g.timeout = 9'000'000;
  g.stages = {{sched::JobKind::Offload, 1, 2, 1, 16},
              {sched::JobKind::Matmul, 2, 2, 1, 8},
              {sched::JobKind::Stencil, 2, 2, 2, 8}};
  g.edges = {{0, 1, 2048}, {1, 2, 1024}};
  const auto specs = sched::expand_graph(g, 40);
  ASSERT_EQ(specs.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(specs[i].id, 40u + i);
    EXPECT_EQ(specs[i].tenant, "dana");
    EXPECT_EQ(specs[i].priority, 2u);
    EXPECT_EQ(specs[i].arrival, 1000u);
    EXPECT_EQ(specs[i].timeout, 9'000'000u);
    EXPECT_EQ(specs[i].graph, 9u);
    EXPECT_EQ(specs[i].stage, i);
    EXPECT_EQ(specs[i].graph_stages, 3u);
  }
  EXPECT_TRUE(specs[0].deps.empty());
  ASSERT_EQ(specs[1].deps.size(), 1u);
  EXPECT_EQ(specs[1].deps[0], (std::pair<std::uint32_t, std::uint32_t>{40, 2048}));
  ASSERT_EQ(specs[2].deps.size(), 1u);
  EXPECT_EQ(specs[2].deps[0], (std::pair<std::uint32_t, std::uint32_t>{41, 1024}));
  // The chain deadline binds only the sink stage.
  EXPECT_EQ(specs[0].deadline, 0u);
  EXPECT_EQ(specs[1].deadline, 0u);
  EXPECT_EQ(specs[2].deadline, 5'000'000u);
}

TEST(JobGraphs, RectsAdjacency) {
  using sched::Placement;
  const Placement a{{0, 0}, 2, 2, false};
  EXPECT_TRUE(sched::rects_adjacent(a, Placement{{0, 2}, 2, 2, false}));  // side
  EXPECT_TRUE(sched::rects_adjacent(a, Placement{{2, 0}, 2, 2, false}));  // below
  EXPECT_TRUE(sched::rects_adjacent(a, Placement{{2, 2}, 2, 2, false}));  // corner
  EXPECT_TRUE(sched::rects_adjacent(a, Placement{{0, 0}, 4, 4, false}));  // overlap
  EXPECT_FALSE(sched::rects_adjacent(a, Placement{{0, 3}, 2, 2, false}));  // 1 gap
  EXPECT_FALSE(sched::rects_adjacent(a, Placement{{5, 5}, 2, 2, false}));
}

TEST(JobGraphs, DrawPipelineIsDeterministicAndValid) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    sched::JobGraph ga = sched::draw_pipeline(a);
    sched::JobGraph gb = sched::draw_pipeline(b);
    ga.id = gb.id = 1;
    EXPECT_NO_THROW(sched::validate_graph(ga));
    ASSERT_EQ(ga.stages.size(), gb.stages.size());
    for (std::size_t s = 0; s < ga.stages.size(); ++s) {
      EXPECT_EQ(ga.stages[s].kind, gb.stages[s].kind);
      EXPECT_EQ(ga.stages[s].rows, gb.stages[s].rows);
      EXPECT_EQ(ga.stages[s].block, gb.stages[s].block);
    }
    EXPECT_GE(ga.stages.size(), 2u);
    EXPECT_LE(ga.stages.size(), 3u);
  }
}

// ---- scheduler behaviour ----------------------------------------------------

std::vector<sched::JobSpec> submit_graph(sched::Scheduler& sc,
                                         const sched::JobGraph& g,
                                         std::uint32_t first_id) {
  auto specs = sched::expand_graph(g, first_id);
  for (const auto& s : specs) sc.submit(s);
  return specs;
}

TEST(DagScheduler, StagesRunInDependencyOrder) {
  host::System sys;
  sched::Scheduler sc(sys);
  sched::JobGraph g;
  g.id = 1;
  g.stages = {{sched::JobKind::Offload, 2, 2, 1, 16},
              {sched::JobKind::Matmul, 2, 2, 1, 8},
              {sched::JobKind::Stencil, 2, 2, 1, 8}};
  g.edges = {{0, 1, 4096}, {1, 2, 2048}};
  submit_graph(sc, g, 0);
  sc.run();
  const auto& recs = sc.records();
  ASSERT_EQ(recs.size(), 3u);
  for (const auto& rec : recs) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  // A consumer may not start before its producer's kernels finished.
  EXPECT_GE(recs[1].started, recs[0].finished);
  EXPECT_GE(recs[2].started, recs[1].finished);
  // Both edges were pulled, over one transport or the other.
  EXPECT_EQ(sc.handoff_scratch_bytes() + sc.handoff_dram_bytes(), 4096u + 2048u);
}

TEST(DagScheduler, AdjacentConsumerPullsOverScratchpads) {
  // Empty mesh, co-placement on: the consumer lands next to (or on) the
  // producer's freed rectangle and the handoff rides the mesh, not the eLink.
  host::System sys;
  sched::Scheduler sc(sys);
  submit_graph(sc, two_stage_graph(), 0);
  sc.run();
  for (const auto& rec : sc.records()) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  EXPECT_EQ(sc.handoff_scratch_bytes(), 4096u);
  EXPECT_EQ(sc.handoff_dram_bytes(), 0u);
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.dag.handoff.scratch_bytes"), 4096.0);
  bool logged = false;
  for (const auto& line : sc.event_log()) {
    logged |= line.find("transport=scratch") != std::string::npos;
  }
  EXPECT_TRUE(logged);
}

TEST(DagScheduler, DisablingScratchForcesDramHandoff) {
  host::System sys;
  sched::SchedConfig cfg;
  cfg.scratch_handoff = false;
  sched::Scheduler sc(sys, cfg);
  submit_graph(sc, two_stage_graph(), 0);
  sc.run();
  for (const auto& rec : sc.records()) {
    EXPECT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  EXPECT_EQ(sc.handoff_scratch_bytes(), 0u);
  EXPECT_EQ(sc.handoff_dram_bytes(), 4096u);
  EXPECT_DOUBLE_EQ(sc.counters().value("sched.dag.handoff.dram_bytes"), 4096.0);
}

TEST(DagScheduler, SerialisedGraphsNeverOverlap) {
  const auto run = [](bool overlap) {
    host::System sys;
    sched::SchedConfig cfg;
    cfg.pipeline_overlap = overlap;
    sched::Scheduler sc(sys, cfg);
    sched::JobGraph g1 = two_stage_graph(1);
    sched::JobGraph g2 = two_stage_graph(2);
    auto s1 = sched::expand_graph(g1, 0);
    auto s2 = sched::expand_graph(g2, 2);
    for (const auto& s : s1) sc.submit(s);
    for (const auto& s : s2) sc.submit(s);
    sc.run();
    return std::make_pair(sc.records(), sc.makespan());
  };
  const auto [serial, serial_makespan] = run(false);
  for (const auto& rec : serial) {
    ASSERT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  // Whole-graph serialisation: no stage of graph 2 starts before every stage
  // of graph 1 resolved.
  const sim::Cycles g1_done = std::max(serial[0].finished, serial[1].finished);
  EXPECT_GE(serial[2].started, g1_done);
  EXPECT_GE(serial[3].started, g1_done);

  const auto [piped, piped_makespan] = run(true);
  for (const auto& rec : piped) {
    ASSERT_EQ(rec.verdict, sched::Verdict::Completed) << rec.detail;
  }
  // Stage pipelining admits graph 2's producer while graph 1 still runs, so
  // the stream finishes no later (strictly earlier on an uncontended mesh).
  EXPECT_LT(piped_makespan, serial_makespan);
}

TEST(DagScheduler, UpstreamFailureCascadesToConsumers) {
  host::System sys;
  sched::Scheduler sc(sys);
  auto specs = sched::expand_graph(two_stage_graph(), 0);
  specs[0].launch_failures = 100;  // exceeds the launch attempts: producer Fails
  for (const auto& s : specs) sc.submit(s);
  sc.run();
  const auto& recs = sc.records();
  EXPECT_EQ(recs[0].verdict, sched::Verdict::Failed);
  EXPECT_EQ(recs[1].verdict, sched::Verdict::Failed);
  EXPECT_NE(recs[1].detail.find("upstream stage"), std::string::npos)
      << recs[1].detail;
  EXPECT_EQ(recs[1].started, 0u);  // the orphan was never placed
  EXPECT_EQ(sc.handoff_scratch_bytes() + sc.handoff_dram_bytes(), 0u);
}

TEST(DagScheduler, UnresolvableDependencyFailsTheStage) {
  // A complete graph whose consumer names a job the graph does not have
  // (sched::load rejects such a spec; Scheduler::submit takes it as given).
  host::System sys;
  sched::Scheduler sc(sys);
  auto specs = sched::expand_graph(two_stage_graph(), 0);
  specs[1].deps = {{77, 4096}};
  for (const auto& s : specs) sc.submit(s);
  sc.run();
  const auto& recs = sc.records();
  EXPECT_EQ(recs[0].verdict, sched::Verdict::Completed) << recs[0].detail;
  EXPECT_EQ(recs[1].verdict, sched::Verdict::Failed);
  EXPECT_EQ(recs[1].detail, "pipeline stage has an unresolvable dependency");
  EXPECT_EQ(recs[1].started, 0u);  // never placed
}

TEST(DagScheduler, ReportCarriesPipelineSectionOnlyForGraphRuns) {
  host::System sys;
  sched::Scheduler sc(sys);
  submit_graph(sc, two_stage_graph(), 0);
  sc.run();
  const std::string report = sched::render_report(sc);
  EXPECT_NE(report.find("-- pipelines --"), std::string::npos) << report;
  EXPECT_NE(report.find("graphs 1 | completed 1"), std::string::npos) << report;
  EXPECT_NE(report.find("graph 1 stage 0"), std::string::npos) << report;

  host::System sys2;
  sched::Scheduler sc2(sys2);
  sched::JobSpec solo;
  solo.id = 0;
  solo.kind = sched::JobKind::Offload;
  solo.rows = solo.cols = 2;
  solo.block = 16;
  sc2.submit(solo);
  sc2.run();
  EXPECT_EQ(sched::render_report(sc2).find("-- pipelines --"), std::string::npos);
}

// ---- pipelined traffic ------------------------------------------------------

TEST(PipelineTraffic, GeneratedStreamCarriesWellFormedGraphs) {
  sched::TrafficConfig tc;
  tc.jobs = 40;
  tc.seed = 11;
  tc.pipeline_frac = 0.6;
  const auto jobs = sched::generate(tc);
  ASSERT_EQ(jobs.size(), 40u);
  unsigned graph_jobs = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);  // ids stay consecutive across graph expansion
    if (jobs[i].graph == 0) continue;
    ++graph_jobs;
    EXPECT_LT(jobs[i].stage, jobs[i].graph_stages);
    for (const auto& [dep, bytes] : jobs[i].deps) {
      EXPECT_LT(dep, jobs[i].id);
      EXPECT_EQ(jobs[dep].graph, jobs[i].graph);
      EXPECT_GT(bytes, 0u);
      EXPECT_EQ(bytes % 512u, 0u);  // DMA-aligned tensor sizes
    }
  }
  EXPECT_GT(graph_jobs, 0u);
  // frac=0 with the same seed replays the pre-pipeline stream untouched.
  sched::TrafficConfig plain = tc;
  plain.pipeline_frac = 0.0;
  for (const auto& s : sched::generate(plain)) EXPECT_EQ(s.graph, 0u);
}

TEST(PipelineTraffic, ServedPipelinedStreamIsDeterministic) {
  sched::TrafficConfig tc;
  tc.jobs = 24;
  tc.seed = 5;
  tc.mean_interarrival = 20'000;
  tc.pipeline_frac = 0.5;
  const auto once = [&] {
    host::System sys;
    sched::Scheduler sc(sys);
    for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
    sc.run();
    return sched::transcript(sc);
  };
  const std::string a = once();
  EXPECT_EQ(a, once());
  EXPECT_NE(a.find("-- pipelines --"), std::string::npos);
}

TEST(PipelineTraffic, SpecFileRoundTripsGraphFields) {
  sched::TrafficConfig tc;
  tc.jobs = 30;
  tc.seed = 11;
  tc.pipeline_frac = 0.6;
  const auto jobs = sched::generate(tc);
  const std::string text = sched::save(jobs);
  EXPECT_NE(text.find(" graph="), std::string::npos);
  EXPECT_NE(text.find(" deps="), std::string::npos);
  std::istringstream in(text);
  const auto loaded = sched::load(in);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].graph, jobs[i].graph);
    EXPECT_EQ(loaded[i].stage, jobs[i].stage);
    EXPECT_EQ(loaded[i].graph_stages, jobs[i].graph_stages);
    EXPECT_EQ(loaded[i].deps, jobs[i].deps);
  }
  EXPECT_EQ(sched::save(loaded), text);
}

TEST(PipelineTraffic, LoadRejectsMalformedGraphFields) {
  std::istringstream bad_dep("job id=1 kind=offload rows=1 cols=1 graph=1 "
                             "stage=1 stages=2 deps=0x2048\n");
  EXPECT_THROW((void)sched::load(bad_dep), std::runtime_error);
  std::istringstream no_graph("job id=1 kind=offload rows=1 cols=1 deps=0:2048\n");
  EXPECT_THROW((void)sched::load(no_graph), std::runtime_error);
  std::istringstream bad_stage("job id=1 kind=offload rows=1 cols=1 graph=1 "
                               "stage=2 stages=2\n");
  EXPECT_THROW((void)sched::load(bad_stage), std::runtime_error);
}

}  // namespace
