// The static half of epi-verify: whole-workgroup race/deadlock analysis
// with no simulation. Each seeded-defect fixture must trip exactly its
// pass; the clean twins and the built-in paper kernels must verify clean;
// and the Listing-1/2 race verdict is cross-checked against the runtime
// shadow-memory sanitizer on the same protocol shape.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "host/system.hpp"
#include "isa/kernels.hpp"
#include "lint/sanitizer.hpp"
#include "lint/wg_fixtures.hpp"
#include "lint/workgroup.hpp"

namespace {

using namespace epi;
using lint::WgFinding;
using lint::WorkgroupSpec;
namespace fx = lint::fixtures;

std::string dump(const std::vector<WgFinding>& fs) {
  std::string s;
  for (const auto& f : fs) s += f.format() + "\n";
  return s;
}

std::size_t count_pass(const std::vector<WgFinding>& fs, const char* pass) {
  std::size_t n = 0;
  for (const auto& f : fs) {
    if (f.finding.pass == pass) ++n;
  }
  return n;
}

// ---- the five seeded defects: each trips exactly its pass -----------------

TEST(Workgroup, Listing12RaceIsCaughtStatically) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::listing12(/*racy=*/true)));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-race");
  EXPECT_EQ(fs[0].finding.severity, lint::Severity::Error);
  EXPECT_EQ(fs[0].core, 1u);  // reported at the consumer's read
  EXPECT_NE(fs[0].finding.message.find("read-after-remote-write"), std::string::npos)
      << fs[0].finding.message;
}

TEST(Workgroup, Listing12WithFlagWaitIsClean) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::listing12(/*racy=*/false)));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Workgroup, BarrierCountMismatchIsADeadlock) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::barrier_mismatch()));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-barrier-mismatch");
  EXPECT_EQ(fs[0].finding.severity, lint::Severity::Error);
}

TEST(Workgroup, CircularFlagWaitChainIsADeadlock) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::circular_wait()));
  ASSERT_EQ(fs.size(), 2u) << dump(fs);  // both cores are stuck
  EXPECT_EQ(count_pass(fs, "wg-flag-cycle"), 2u) << dump(fs);
}

TEST(Workgroup, OutOfWorkgroupRemoteWrite) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::stray_remote_write()));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-out-of-group");
  EXPECT_EQ(fs[0].core, 0u);
}

TEST(Workgroup, DmaDescriptorOverflowingScratchpad) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::bad_dma()));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-dma");
  EXPECT_EQ(fs[0].finding.line, 1u);  // the .dma directive's source line
}

// ---- shmem put_with_signal: DMA payloads join the HB analysis -------------

TEST(Workgroup, ShmemPutWithSignalVerifiesClean) {
  const auto fs =
      lint::verify_workgroup(fx::to_spec(fx::shmem_put_signal(/*racy=*/false)));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Workgroup, ShmemGetBeforeSignalTripsExactlyWgRace) {
  const auto fs =
      lint::verify_workgroup(fx::to_spec(fx::shmem_put_signal(/*racy=*/true)));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-race");
  EXPECT_EQ(fs[0].finding.severity, lint::Severity::Error);
  EXPECT_EQ(fs[0].core, 1u);  // at the consumer's premature read
}

// ---- further defect shapes ------------------------------------------------

TEST(Workgroup, WaitOnFlagNobodyWrites) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::wait_without_writer()));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-flag-deadlock");
}

TEST(Workgroup, HostPreloadedFlagSatisfiesTheWait) {
  auto fixture = fx::wait_without_writer();
  // The host sets the flag before launch: core (0,0)'s word 0x6000.
  fixture.host_preloaded.emplace_back(0x80806000u, 0x80806004u);
  const auto fs = lint::verify_workgroup(fx::to_spec(fixture));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Workgroup, UnmappedCoreIdIsAnError) {
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  // Core id 1 decodes to mesh row 0 < base_row 32: no such core.
  f.programs.emplace_back("bad-id",
                          "mov r0, #0x00100000\n"
                          "mov r1, #1\n"
                          "str r1, [r0, #0]\n"
                          "halt\n");
  f.programs.emplace_back("idle", "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-unmapped-core");
}

TEST(Workgroup, RemoteAccessPastTargetScratchpad) {
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  f.programs.emplace_back("overrun",
                          "mov r0, #0x80907FFE\n"
                          "mov r1, #1\n"
                          "str r1, [r0, #0]\n"
                          "halt\n");
  f.programs.emplace_back("idle", "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-remote-extent");
}

TEST(Workgroup, RemoteBankStraddleIsAWarning) {
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  // 0x1FFE + 4 bytes crosses the 8 KB bank 0 -> bank 1 boundary of the
  // peer's scratchpad. The store itself is otherwise legal, and the
  // peer never reads it, so the straddle warning is the only finding.
  f.programs.emplace_back("straddle",
                          "mov r0, #0x80901FFE\n"
                          "mov r1, #1\n"
                          "str r1, [r0, #0]\n"
                          "halt\n");
  f.programs.emplace_back("idle", "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-remote-bank");
  EXPECT_EQ(fs[0].finding.severity, lint::Severity::Warning);
  EXPECT_FALSE(lint::any_errors(fs));
}

// ---- clean protocols ------------------------------------------------------

TEST(Workgroup, BarrierOrderedExchangeIsClean) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::barrier_exchange()));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Workgroup, MutexGuardedCounterIsClean) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::mutex_counter()));
  EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(Workgroup, CoreIdAddressCompositionResolves) {
  // SPMD: every core composes its own global window via coreid << 20 and
  // stores there -- distinct targets per core, no races, clean anywhere
  // on the mesh (placement-independent by construction).
  fx::WgFixture f;
  f.rows = 2;
  f.cols = 2;
  f.programs.emplace_back("spmd-self-store",
                          "coreid r0\n"
                          "lsl r0, r0, #20\n"
                          "mov r1, #0x4000\n"
                          "add r1, r0, r1\n"
                          "mov r2, #5\n"
                          "str r2, [r1, #0]\n"
                          "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  EXPECT_TRUE(fs.empty()) << dump(fs);

  // And the same group anchored elsewhere on the mesh stays clean.
  auto spec = fx::to_spec(f);
  spec.origin = {3, 4};
  const auto fs2 = lint::verify_workgroup(spec);
  EXPECT_TRUE(fs2.empty()) << dump(fs2);
}

TEST(Workgroup, CoreIdCompositionIntoPeerIsRaceChecked) {
  // The same coreid composition targeting a *fixed* peer: core (0,0)
  // writes into core (0,1) with no synchronisation while (0,1) reads the
  // word -- the verifier must still see through the register arithmetic.
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  f.programs.emplace_back("writer",
                          "mov r0, #0x80904000\n"
                          "mov r1, #9\n"
                          "str r1, [r0, #0]\n"
                          "halt\n");
  f.programs.emplace_back("reader",
                          "coreid r0\n"
                          "lsl r0, r0, #20\n"
                          "mov r1, #0x4000\n"
                          "add r1, r0, r1\n"
                          "ldr r2, [r1, #0]\n"
                          "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-race");
}

TEST(Workgroup, BuiltinPaperKernelsVerifyCleanAsAGroup) {
  const std::string stencil =
      isa::generate_stencil_stripe(4, util::StencilWeights{}, 880);
  const std::string matmul = isa::generate_matmul_rows(32);
  for (const auto* src : {&stencil, &matmul}) {
    const auto spec = lint::assemble_workgroup(2, 2, {{"builtin", *src}});
    const auto fs = lint::verify_workgroup(spec);
    EXPECT_TRUE(fs.empty()) << dump(fs);
  }
}

// ---- strided remote walks -------------------------------------------------

TEST(Workgroup, StridedRemoteWalkPastScratchpadIsAnError) {
  // A counted postmodify loop streaming into the peer: 64 doublewords
  // from 0x7F00 walk to 0x8100, past the 32 KB scratchpad end.
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  f.programs.emplace_back("stream-overrun",
                          "mov r0, #0x80907F00\n"
                          "mov r2, #0\n"
                          "mov r3, #0\n"
                          "mov r5, #64\n"
                          "loop:\n"
                          "strd r2, [r0], #8\n"
                          "sub r5, r5, #1\n"
                          "bne loop\n"
                          "halt\n");
  f.programs.emplace_back("idle", "halt\n");
  const WorkgroupSpec spec = fx::to_spec(f);
  const auto fs = lint::verify_workgroup(spec);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-remote-extent");
  // The walk is remote, so the single-core passes leave it to the verifier.
  EXPECT_TRUE(lint::lint_program(spec.cores[0].prog).empty());
}

// The division of labour between the analyzers over the shared access
// model: the per-core passes judge local walks and loop counters, the
// verifier only remote targets, so each defect is reported exactly once.

TEST(Workgroup, LocalStridedWalkPastScratchpadIsAPerCoreFinding) {
  const auto fs = lint::verify_workgroup(lint::assemble_workgroup(
      1, 1,
      {{"local-overrun",
        "mov r0, #0x7F00\n"
        "mov r2, #0\n"
        "mov r3, #0\n"
        "mov r5, #64\n"
        "loop:\n"
        "strd r2, [r0], #8\n"
        "sub r5, r5, #1\n"
        "bne loop\n"
        "halt\n"}}));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "mem-extent");
  EXPECT_EQ(fs[0].finding.line, 6u);  // the per-core pass, not wg-remote-extent
}

TEST(Workgroup, CounterSteppingPastZeroIsAPerCoreFinding) {
  const auto fs = lint::verify_workgroup(lint::assemble_workgroup(
      1, 1,
      {{"counter",
        "mov r7, #5\n"
        "loop:\n"
        "sub r7, r7, #2\n"
        "bne loop\n"
        "halt\n"}}));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "termination");
  EXPECT_NE(fs[0].finding.message.find("never reaches zero"), std::string::npos);
}

TEST(Workgroup, StridedRemoteStreamRacesWithUnsynchronisedReader) {
  fx::WgFixture f;
  f.rows = 1;
  f.cols = 2;
  f.programs.emplace_back("streamer",
                          "mov r0, #0x80904000\n"
                          "mov r2, #1\n"
                          "mov r5, #16\n"
                          "loop:\n"
                          "str r2, [r0], #4\n"
                          "sub r5, r5, #1\n"
                          "bne loop\n"
                          "halt\n");
  f.programs.emplace_back("reader",
                          "mov r0, #0x4020\n"  // inside the streamed range
                          "ldr r1, [r0, #0]\n"
                          "halt\n");
  const auto fs = lint::verify_workgroup(fx::to_spec(f));
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "wg-race");
}

// ---- spec validation and determinism --------------------------------------

TEST(Workgroup, RegisterOutsideTheFileIsReportedNotPropagated) {
  // Hand-built programs can name any uint8 register; the verifier must not
  // index its per-register state with one.
  isa::Program p;
  isa::Instruction mov{};
  mov.op = isa::Opcode::MovImm;
  mov.rd = 200;
  mov.imm = 5;
  isa::Instruction halt{};
  halt.op = isa::Opcode::Halt;
  p.code = {mov, halt};
  WorkgroupSpec spec;
  spec.cores.push_back({p, "hand-built"});
  const auto fs = lint::verify_workgroup(spec);
  ASSERT_EQ(fs.size(), 1u) << dump(fs);
  EXPECT_EQ(fs[0].finding.pass, "reg-range");
}

TEST(Workgroup, MalformedSpecsThrow) {
  fx::WgFixture f;
  f.rows = 2;
  f.cols = 2;
  f.programs.emplace_back("a", "halt\n");
  f.programs.emplace_back("b", "halt\n");  // 2 programs for a 2x2 group
  EXPECT_THROW((void)fx::to_spec(f), std::invalid_argument);

  auto spec = fx::to_spec(fx::listing12(false));
  spec.origin = {7, 7};  // 1x2 group cannot fit at the mesh corner
  EXPECT_THROW((void)lint::verify_workgroup(spec), std::invalid_argument);
}

TEST(Workgroup, VerdictIsDeterministic) {
  const auto a = lint::verify_workgroup(fx::to_spec(fx::listing12(true)));
  const auto b = lint::verify_workgroup(fx::to_spec(fx::listing12(true)));
  EXPECT_EQ(dump(a), dump(b));
  const auto c = lint::verify_workgroup(fx::to_spec(fx::circular_wait()));
  const auto d = lint::verify_workgroup(fx::to_spec(fx::circular_wait()));
  EXPECT_EQ(dump(c), dump(d));
}

TEST(Workgroup, FindingFormatNamesTheCore) {
  const auto fs = lint::verify_workgroup(fx::to_spec(fx::listing12(true)));
  ASSERT_EQ(fs.size(), 1u);
  const std::string line = fs[0].format();
  EXPECT_NE(line.find("consumer[core 0.1]:"), std::string::npos) << line;
  EXPECT_NE(line.find("error:"), std::string::npos) << line;
  EXPECT_NE(line.find("[wg-race]"), std::string::npos) << line;
}

// ---- cross-check against the runtime sanitizer ----------------------------

/// The same Listing-1/2 protocol as the static fixture, executed on the
/// simulator with the shadow-memory sanitizer attached (the dynamic
/// detector from PR 1). Static and dynamic verdicts must agree.
std::size_t dynamic_race_count(bool consumer_waits) {
  constexpr arch::Addr kData = 0x4000, kFlag = 0x5000;
  host::System sys;
  lint::MemSanitizer san(sys.machine().mem());
  auto wg = sys.open(0, 0, 1, 2);
  wg.load([consumer_waits](device::CoreCtx& ctx) -> sim::Op<void> {
    return [](device::CoreCtx& c, bool waits) -> sim::Op<void> {
      if (c.group_index() == 0) {
        const arch::CoreCoord peer{0, 1};
        co_await c.write_u32(c.global(peer, kData), 42);
        co_await c.write_u32(c.global(peer, kFlag), 1);
      } else {
        co_await c.compute(10000);  // let the store land: race, not uninit
        if (waits) co_await c.wait_u32_eq(c.my_global(kFlag), 1);
        (void)co_await c.read_u32(c.my_global(kData));
      }
    }(ctx, consumer_waits);
  });
  wg.run();
  std::size_t races = 0;
  for (const auto& f : san.findings()) {
    if (f.pass == "race") ++races;
  }
  return races;
}

TEST(Workgroup, StaticVerdictMatchesRuntimeSanitizer) {
  const auto racy = lint::verify_workgroup(fx::to_spec(fx::listing12(true)));
  const auto clean = lint::verify_workgroup(fx::to_spec(fx::listing12(false)));
  EXPECT_EQ(count_pass(racy, "wg-race"), 1u) << dump(racy);
  EXPECT_TRUE(clean.empty()) << dump(clean);
  // The dynamic detector agrees on the same protocol, but needed a full
  // simulation to say so.
  EXPECT_EQ(dynamic_race_count(/*consumer_waits=*/false), 1u);
  EXPECT_EQ(dynamic_race_count(/*consumer_waits=*/true), 0u);
}

}  // namespace
