#include "sched/workload.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sched/dag.hpp"
#include "sim/random.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace epi::sched {

namespace {

// Spec fields outside these caps are rejected: a job's chip tags index the
// largest chip grid, and its work stays bounded (generated streams use 1-3).
constexpr std::uint64_t kMaxChip = cli::kMaxChipExtent * cli::kMaxChipExtent - 1;
constexpr std::uint64_t kMaxIters = 1'000;

// Chance a generated job (or a whole pipeline) carries a completion deadline.
constexpr double kDeadlineProb = 0.25;

// Workgroup shapes a serving job may request, with draw weights biased
// toward small groups (the realistic mix: many small tenants, occasional
// large jobs that exercise head-of-line blocking and fragmentation).
struct ShapeChoice {
  unsigned rows, cols, weight;
};
constexpr ShapeChoice kShapes[] = {
    {1, 1, 4}, {1, 2, 3}, {2, 2, 4}, {2, 4, 3},
    {4, 4, 3}, {2, 8, 1}, {4, 8, 1}, {8, 8, 1},
};

unsigned weighted_draw(sim::Rng& rng, const unsigned* weights, unsigned n) {
  unsigned total = 0;
  for (unsigned i = 0; i < n; ++i) total += weights[i];
  std::uint64_t r = rng.next_below(total);
  for (unsigned i = 0; i < n; ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return n - 1;
}

}  // namespace

std::vector<JobSpec> generate(const TrafficConfig& cfg) {
  if (cfg.tenants.empty()) {
    throw std::invalid_argument("TrafficConfig::tenants must not be empty");
  }
  sim::Rng rng(cfg.seed);
  // Drawable kinds (Custom is submit-only: it carries inline programs).
  constexpr JobKind kKinds[] = {JobKind::Matmul, JobKind::Stencil,
                                JobKind::Offload, JobKind::CannonMatmul,
                                JobKind::Transpose};
  const unsigned kind_weights[std::size(kKinds)] = {
      cfg.matmul_weight, cfg.stencil_weight, cfg.offload_weight,
      cfg.cannon_weight, cfg.transpose_weight};
  unsigned shape_weights[std::size(kShapes)];
  for (unsigned i = 0; i < std::size(kShapes); ++i) shape_weights[i] = kShapes[i].weight;

  std::vector<JobSpec> jobs;
  jobs.reserve(cfg.jobs);
  sim::Cycles t = 0;
  std::uint32_t next_graph = 1;
  while (jobs.size() < cfg.jobs) {
    // Pipeline requests ride the same budget: each graph emits one JobSpec
    // per stage. Every draw below is guarded by pipeline_frac > 0 so a
    // frac-0 config replays the pre-pipeline rng stream byte-identically.
    const unsigned remaining = cfg.jobs - static_cast<unsigned>(jobs.size());
    if (cfg.pipeline_frac > 0 && remaining >= 2 &&
        rng.next_float() < cfg.pipeline_frac) {
      JobGraph g = draw_pipeline(rng, remaining >= 3 ? 3 : 2);
      g.id = next_graph++;
      g.tenant = cfg.tenants[rng.next_below(cfg.tenants.size())];
      g.priority = static_cast<unsigned>(rng.next_below(4));
      if (cfg.mean_interarrival > 0 && !jobs.empty()) {
        t += cfg.mean_interarrival / 2 + rng.next_below(cfg.mean_interarrival);
      }
      g.arrival = t;
      if (rng.next_float() < kDeadlineProb) {
        // Whole-chain SLO: the budget scales with the stage count, since the
        // stages run back to back at best.
        g.deadline = t + 2'000'000ull * g.stages.size() + rng.next_below(2'000'000);
      }
      g.timeout = cfg.timeout;
      for (JobSpec& s : expand_graph(g, static_cast<std::uint32_t>(jobs.size()))) {
        jobs.push_back(std::move(s));
      }
      continue;
    }
    JobSpec s;
    s.id = static_cast<std::uint32_t>(jobs.size());
    s.tenant = cfg.tenants[rng.next_below(cfg.tenants.size())];
    s.kind = kKinds[weighted_draw(rng, kind_weights, std::size(kKinds))];
    const ShapeChoice& shape =
        kShapes[weighted_draw(rng, shape_weights, std::size(kShapes))];
    s.rows = shape.rows;
    s.cols = shape.cols;
    if (s.kind == JobKind::CannonMatmul) {
      // Cannon's active torus is the min(rows, cols) square; request a square
      // group so every granted core participates in the rotation.
      s.rows = s.cols = std::min(shape.rows, shape.cols);
    }
    s.priority = static_cast<unsigned>(rng.next_below(4));
    // Geometric-flavoured gap around the mean: uniform in [mean/2, 3*mean/2)
    // keeps bursts and lulls without heavy tails that would make short
    // benches unrepresentative.
    if (cfg.mean_interarrival > 0 && !jobs.empty()) {
      t += cfg.mean_interarrival / 2 + rng.next_below(cfg.mean_interarrival);
    }
    s.arrival = t;
    s.iters = 1 + static_cast<unsigned>(rng.next_below(3));
    switch (s.kind) {
      case JobKind::Matmul: s.block = 8u << rng.next_below(3); break;   // 8/16/32
      case JobKind::Stencil: s.block = 8 + 4 * static_cast<unsigned>(rng.next_below(4)); break;
      case JobKind::Offload: s.block = 16u << rng.next_below(2); break; // 16/32
      case JobKind::CannonMatmul: s.block = 8u << rng.next_below(2); break; // 8/16
      // block^2 words per PE pair (clamped to the symmetric heap at launch)
      case JobKind::Transpose: s.block = 4u << rng.next_below(2); break;  // 4/8
      case JobKind::Custom: break;  // never drawn: kKinds excludes it
    }
    if (rng.next_float() < cfg.fail_prob) {
      s.launch_failures = 1 + static_cast<unsigned>(rng.next_below(2));
    }
    if (rng.next_float() < kDeadlineProb) {
      s.deadline = s.arrival + 2'000'000 + rng.next_below(2'000'000);
    }
    s.timeout = cfg.timeout;
    jobs.push_back(std::move(s));
  }
  return jobs;
}

std::string save(const std::vector<JobSpec>& jobs) {
  std::string out = "# epi-serve workload (one job per line)\n";
  for (const JobSpec& s : jobs) {
    out += util::format(
        "job id=%u tenant=%s kind=%s rows=%u cols=%u prio=%u arrival=%llu "
        "deadline=%llu timeout=%llu iters=%u block=%u failures=%u",
        s.id, s.tenant.c_str(), to_string(s.kind), s.rows, s.cols, s.priority,
        static_cast<unsigned long long>(s.arrival),
        static_cast<unsigned long long>(s.deadline),
        static_cast<unsigned long long>(s.timeout), s.iters, s.block,
        s.launch_failures);
    // Cluster domain tags, omitted for single-chip jobs so single-chip
    // workload files stay byte-identical to the pre-cluster format.
    if (s.home_chip != 0 || s.origin_chip != 0) {
      out += util::format(" home=%u origin=%u", s.home_chip, s.origin_chip);
    }
    // Pipeline tags, omitted for standalone jobs for the same reason.
    if (s.graph != 0) {
      out += util::format(" graph=%u stage=%u stages=%u", s.graph, s.stage,
                          s.graph_stages);
      if (!s.deps.empty()) {
        out += " deps=";
        for (std::size_t i = 0; i < s.deps.size(); ++i) {
          out += util::format(i == 0 ? "%u:%u" : ",%u:%u", s.deps[i].first,
                              s.deps[i].second);
        }
      }
    }
    out += "\n";
  }
  return out;
}

std::vector<JobSpec> load(std::istream& in, const std::string& source) {
  std::vector<JobSpec> jobs;
  std::vector<unsigned> job_lines;  // source line of each job
  std::string line;
  unsigned lineno = 0;
  const auto fail_at = [&](unsigned at, const std::string& why) {
    return std::runtime_error(
        util::format("%s:%u: %s", source.c_str(), at, why.c_str()));
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto fail = [&](const std::string& why) { return fail_at(lineno, why); };
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;  // blank or comment
    if (word != "job") throw fail("expected 'job', got '" + word + "'");
    JobSpec s;
    while (ls >> word) {
      const auto eq = word.find('=');
      if (eq == std::string::npos) throw fail("field '" + word + "' is not key=value");
      const std::string key = word.substr(0, eq);
      const std::string val = word.substr(eq + 1);
      const std::string field = "field '" + key + "'";
      try {
        if (key == "id") cli::read_into(field, val, s.id);
        else if (key == "tenant") s.tenant = val;
        else if (key == "kind") {
          if (!parse_kind(val, s.kind)) throw fail("unknown kind '" + val + "'");
          if (s.kind == JobKind::Custom) {
            throw fail(
                "custom jobs carry inline programs and cannot be expressed in "
                "a workload file; submit them via Scheduler::submit or "
                "epi_serve --asm");
          }
        }
        else if (key == "rows") cli::read_into(field, val, s.rows, 0, cli::kMaxMeshExtent);
        else if (key == "cols") cli::read_into(field, val, s.cols, 0, cli::kMaxMeshExtent);
        else if (key == "prio") cli::read_into(field, val, s.priority);
        else if (key == "arrival") cli::read_into(field, val, s.arrival, 0, cli::kMaxCycles);
        else if (key == "deadline") cli::read_into(field, val, s.deadline, 0, cli::kMaxCycles);
        else if (key == "timeout") cli::read_into(field, val, s.timeout, 0, cli::kMaxCycles);
        else if (key == "iters") cli::read_into(field, val, s.iters, 0, kMaxIters);
        else if (key == "block") cli::read_into(field, val, s.block);
        else if (key == "failures") cli::read_into(field, val, s.launch_failures);
        else if (key == "home") cli::read_into(field, val, s.home_chip, 0, kMaxChip);
        else if (key == "origin") cli::read_into(field, val, s.origin_chip, 0, kMaxChip);
        else if (key == "graph") cli::read_into(field, val, s.graph);
        else if (key == "stage") cli::read_into(field, val, s.stage);
        else if (key == "stages") cli::read_into(field, val, s.graph_stages);
        else if (key == "deps") {
          // id:bytes pairs, comma-separated: deps=12:2048,13:4096
          std::size_t pos = 0;
          while (pos < val.size()) {
            const auto comma = val.find(',', pos);
            const std::string pair =
                val.substr(pos, comma == std::string::npos ? comma : comma - pos);
            const auto colon = pair.find(':');
            if (colon == std::string::npos || colon == 0 || colon + 1 >= pair.size()) {
              throw fail("dep '" + pair + "' is not id:bytes");
            }
            auto& [id, bytes] = s.deps.emplace_back();
            cli::read_into(field, pair.substr(0, colon), id);
            cli::read_into(field, pair.substr(colon + 1), bytes);
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
        }
        else throw fail("unknown field '" + key + "'");
      } catch (const cli::UsageError& e) {
        throw fail(e.what());  // a number outside its field's range
      }
    }
    if (s.rows == 0 || s.cols == 0) throw fail("job shape must be at least 1x1");
    if (s.graph != 0 && (s.graph_stages == 0 || s.stage >= s.graph_stages)) {
      throw fail("graph job needs stage < stages (got stage=" +
                 std::to_string(s.stage) + " stages=" +
                 std::to_string(s.graph_stages) + ")");
    }
    if (s.graph == 0 && !s.deps.empty()) {
      throw fail("deps require a nonzero graph id");
    }
    jobs.push_back(std::move(s));
    job_lines.push_back(lineno);
  }
  // Whole-file checks. Ids name jobs uniquely, standalone or graph (a line
  // without id= reads as id 0): the report lists jobs by id, and deps refer
  // to them by id. A graph short of its stages never wires, and a dep on
  // anything but an earlier stage of its own graph (another graph's job, a
  // missing id, itself, a cycle) never resolves; either would leave the
  // scheduler waiting on the graph forever.
  std::map<std::uint32_t, unsigned> graph_jobs;   // graph -> job count
  std::map<std::uint32_t, std::size_t> by_id;     // job id -> index in jobs
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& s = jobs[i];
    if (const auto [it, fresh] = by_id.emplace(s.id, i); !fresh) {
      throw fail_at(job_lines[i],
                    util::format("job %u: id already names the job at line %u",
                                 s.id, job_lines[it->second]));
    }
    if (s.graph != 0) ++graph_jobs[s.graph];
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& s = jobs[i];
    if (s.graph == 0) continue;
    if (graph_jobs[s.graph] != s.graph_stages) {
      throw fail_at(job_lines[i],
                    util::format("job %u: graph %u has %u jobs but stages=%u",
                                 s.id, s.graph, graph_jobs[s.graph],
                                 s.graph_stages));
    }
    for (const auto& [dep, bytes] : s.deps) {
      (void)bytes;
      const auto it = by_id.find(dep);
      if (it == by_id.end() || jobs[it->second].graph != s.graph ||
          jobs[it->second].stage >= s.stage) {
        throw fail_at(job_lines[i],
                      util::format("job %u: dep %u is not an earlier stage of "
                                   "graph %u",
                                   s.id, dep, s.graph));
      }
    }
  }
  return jobs;
}

std::vector<JobSpec> load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload spec: " + path);
  return load(in, path);
}

}  // namespace epi::sched
