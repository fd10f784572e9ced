// epi-trace: determinism, export validity, counter discipline, and the
// profiler's attribution-completeness invariant. The scenarios are small
// versions of the instrumented benches (off-chip matmul, eLink contention)
// so the tests exercise every event source: core phases, mesh links, eLink
// grants, DMA descriptors, memory hooks, and sync operations.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/matmul.hpp"
#include "core/microbench.hpp"
#include "host/system.hpp"
#include "lint/sanitizer.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace epi;
using arch::CoreCoord;

constexpr arch::Addr kFlag = 0x5000;

/// A small off-chip matmul with every subsystem involved: host preload over
/// the eLink, per-core DMA paging, barriers, compute, and write-back.
void run_offchip_scenario(host::System& sys) {
  core::run_matmul_offchip(sys, 64, 2, 16, core::Codegen::TunedAsm, 42, false);
}

std::string export_trace(const trace::Tracer& t) {
  std::ostringstream os;
  trace::write_chrome_trace(os, t);
  return os.str();
}

std::string export_csv(const trace::Tracer& t) {
  std::ostringstream os;
  trace::write_counters_csv(os, t.counters());
  return os.str();
}

TEST(Trace, DeterministicAcrossRuns) {
  std::string json[2], csv[2];
  sim::Cycles end[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    host::System sys;
    trace::Tracer& t = sys.machine().enable_tracing();
    run_offchip_scenario(sys);
    json[i] = export_trace(t);
    csv[i] = export_csv(t);
    end[i] = sys.engine().now();
  }
  EXPECT_EQ(end[0], end[1]);
  EXPECT_EQ(json[0], json[1]) << "trace.json must be byte-identical run to run";
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_GT(json[0].size(), 1000u);  // a real trace, not an empty shell
}

TEST(Trace, ChromeTraceIsWellFormed) {
  host::System sys;
  trace::Tracer& t = sys.machine().enable_tracing();
  run_offchip_scenario(sys);
  const std::string json = export_trace(t);

  // Envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ns\"}"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

  // Structural sanity without a JSON library: the exporter never emits raw
  // control characters, and braces/brackets balance.
  long braces = 0, brackets = 0;
  for (const char c : json) {
    ASSERT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "unescaped control character in trace.json";
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Every Begin is matched by an End on the same track, in order.
  std::map<std::uint32_t, long> depth;
  for (const auto& ev : t.events()) {
    if (ev.type == trace::Event::Type::Begin) ++depth[ev.track];
    if (ev.type == trace::Event::Type::End) {
      ASSERT_GT(depth[ev.track], 0) << "End without Begin on track "
                                    << t.tracks()[ev.track].name;
      --depth[ev.track];
    }
  }
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on track " << t.tracks()[track].name;
  }

  // Per-track timestamps never go backwards. (Global order is recording
  // order, not time order: compute() logs its whole span at issue time, so
  // its End can carry a timestamp later than the next event recorded --
  // Perfetto sorts per thread, which is exactly this invariant.)
  std::map<std::uint32_t, sim::Cycles> last;
  for (const auto& ev : t.events()) {
    if (ev.type == trace::Event::Type::Counter) continue;
    const auto it = last.find(ev.track);
    if (it != last.end()) {
      EXPECT_GE(ev.t, it->second)
          << "track " << t.tracks()[ev.track].name << " went backwards";
    }
    last[ev.track] = ev.t;
  }
}

TEST(Trace, MonotonicCountersNeverDecrease) {
  host::System sys;
  trace::Tracer& t = sys.machine().enable_tracing();
  run_offchip_scenario(sys);

  std::map<std::uint32_t, double> last;
  unsigned samples = 0;
  for (const auto& ev : t.events()) {
    if (ev.type != trace::Event::Type::Counter) continue;
    if (t.counters().kind(ev.track) != trace::Counters::Kind::Monotonic) continue;
    const auto it = last.find(ev.track);
    if (it != last.end()) {
      EXPECT_GE(ev.value, it->second)
          << "counter " << t.counters().name(ev.track) << " decreased";
    }
    last[ev.track] = ev.value;
    ++samples;
  }
  EXPECT_GT(samples, 100u);  // the scenario produces real counter traffic
  EXPECT_GT(t.counters().value("elink.write.bytes"), 0.0);
  EXPECT_GT(t.counters().value("dma.bytes"), 0.0);
  EXPECT_GT(t.counters().value("flops"), 0.0);
}

TEST(Trace, CounterRegistryEnforcesDiscipline) {
  trace::Counters c;
  const auto mono = c.define("bytes", trace::Counters::Kind::Monotonic);
  const auto gauge = c.define("occupancy", trace::Counters::Kind::Gauge);

  c.add(mono, 16.0);
  c.add(mono, 8.0);
  EXPECT_DOUBLE_EQ(c.value(mono), 24.0);
  EXPECT_THROW(c.add(mono, -1.0), std::logic_error);
  EXPECT_THROW(c.set(mono, 4.0), std::logic_error);  // decrease via set

  c.set(gauge, 3.0);
  c.set(gauge, 1.0);  // gauges may go down
  EXPECT_DOUBLE_EQ(c.value(gauge), 1.0);

  // Redefinition is idempotent for the same kind, an error for a new one.
  EXPECT_EQ(c.define("bytes", trace::Counters::Kind::Monotonic), mono);
  EXPECT_THROW(c.define("bytes", trace::Counters::Kind::Gauge), std::logic_error);
  EXPECT_DOUBLE_EQ(c.value("no-such-counter"), 0.0);
}

TEST(Trace, AttributionPartitionsTheWindowExactly) {
  host::System sys;
  trace::Tracer& t = sys.machine().enable_tracing();
  run_offchip_scenario(sys);
  const sim::Cycles end = sys.engine().now();

  const auto report = trace::attribute(t, 0, end);
  ASSERT_EQ(report.cores.size(), 4u);  // the 2x2 group
  EXPECT_EQ(report.window(), end);
  for (const auto& core : report.cores) {
    EXPECT_EQ(core.total, report.window());
    EXPECT_GE(core.other, 0) << "negative residual = overlapping spans on "
                             << arch::to_string(core.coord);
    // The invariant the profiler is built on: depth-0 spans partition the
    // window, so the buckets sum back to it exactly.
    EXPECT_EQ(core.attributed() + static_cast<sim::Cycles>(core.other),
              report.window())
        << "attribution does not sum to the window on " << arch::to_string(core.coord);
    EXPECT_GT(core.compute, 0u);
  }
  // Off-chip paging dominates even at this tiny size (paper Table VI).
  EXPECT_GT(report.comm_dma_fraction(), 0.5);
  EXPECT_GT(report.compute_fraction(), 0.0);
}

TEST(Trace, WindowClippingChargesOpenSpans) {
  host::System sys;
  trace::Tracer& t = sys.machine().enable_tracing();
  run_offchip_scenario(sys);
  const sim::Cycles end = sys.engine().now();

  // A half-window report must still partition exactly, with spans straddling
  // the cut clipped at both edges.
  const auto half = trace::attribute(t, end / 4, end / 2);
  for (const auto& core : half.cores) {
    EXPECT_EQ(core.attributed() + static_cast<sim::Cycles>(core.other), half.window());
  }
}

TEST(Trace, SanitizerAndTracerCompose) {
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  trace::Tracer& t = sys.machine().enable_tracing();
  EXPECT_EQ(sys.machine().mem().hooks().size(), 2u);

  // The Listing-1 race: producer writes a neighbour's scratchpad, consumer
  // reads it without waiting on the flag. Both hooks must observe the run.
  auto wg = sys.open(0, 0, 1, 2);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      if (c.group_index() == 0) {
        co_await c.write_u32(c.global({0, 1}, 0x4000), 7);
      } else {
        co_await c.compute(10000);
        (void)co_await c.read_u32(c.my_global(0x4000));
      }
    }(ctx);
  });
  wg.run();

  EXPECT_EQ(san.count("race"), 1u);                          // sanitizer saw it
  EXPECT_GT(t.counters().value("mem.write.bytes@(0,1)"), 0.0);  // tracer saw it
  const auto report = trace::attribute(t, 0, sys.engine().now());
  EXPECT_EQ(report.cores.size(), 2u);

  sys.machine().disable_tracing();
  EXPECT_EQ(sys.machine().mem().hooks().size(), 1u);
  EXPECT_EQ(sys.machine().tracer(), nullptr);
}

TEST(Trace, DeadlockNamesTheStuckCore) {
  host::System sys;
  auto wg = sys.open(0, 0, 1, 1);
  wg.load([](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c) -> sim::Op<void> {
      co_await c.wait_u32_eq(c.my_global(kFlag), 1);  // nobody ever sets it
    }(ctx);
  });
  try {
    wg.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    ASSERT_FALSE(e.stuck_names.empty());
    EXPECT_EQ(e.stuck_names.front(), "core (0,0)");
    EXPECT_NE(std::string(e.what()).find("core (0,0)"), std::string::npos);
  }
}

TEST(Trace, ElinkContentionRecordsStallsAndGrants) {
  host::System sys;
  trace::Tracer& t = sys.machine().enable_tracing();
  core::measure_elink_contention(sys, 2, 2, 2048, 0.002);

  EXPECT_GT(t.counters().value("elink.write.bytes"), 0.0);
  EXPECT_GT(t.counters().value("elink.write.stall_cycles"), 0.0);
  // The cascade arbiter favours the node nearest the exit: (0,1) outranks
  // (1,0) in bytes granted (Table II's position dependence).
  EXPECT_GE(t.counters().value("elink.write.bytes@(0,1)"),
            t.counters().value("elink.write.bytes@(1,0)"));

  // The eLink track exists and its grant spans carry the stall argument.
  bool saw_grant = false;
  for (const auto& ev : t.events()) {
    if (ev.type != trace::Event::Type::Begin) continue;
    if (t.tracks()[ev.track].name != "eLink write") continue;
    saw_grant = true;
    EXPECT_EQ(t.str(ev.arg_name[0]), "bytes");
    EXPECT_EQ(ev.arg[0], 2048u);
    break;
  }
  EXPECT_TRUE(saw_grant);
}

}  // namespace
