#pragma once
// Deterministic fault-injection plans.
//
// A FaultPlan is a list of scheduled hardware faults -- core kills and
// stalls, directed-mesh-link and eLink outages, bit flips on DRAM or
// scratchpad writes -- plus the seed that drives every random choice the
// injector makes while applying them (which bit to flip, where in a written
// range). Plans are data, not behaviour: the same plan and seed replay
// byte-identically on every platform, which is what makes a chaos run a
// regression test instead of a dice roll.
//
// Plans come from two places:
//   * a line-oriented text spec (parse()/save(), mirroring the workload
//     format: one directive per line, `key=value` fields, `#` comments),
//     for scripted scenarios and replays;
//   * generate(ChaosConfig): a seeded random plan with a configured mix of
//     fault kinds, for chaos sweeps (bench/abl_faults, epi_fault).
//
//   seed 7
//   kill core=2,3 at=120000
//   stall core=0,1 at=40000 for=90000
//   link router=4,4 dir=east at=60000 for=0        # for=0 => permanent
//   elink kind=write at=200000 for=15000
//   elink-flip kind=write at=0 for=500000 count=2
//   mem-flip region=dram at=0 for=400000 count=3
//   mem-flip region=scratch core=1,1 at=0 for=0 count=1
//
// Cluster plans scope faults to whole chips of an RxC xMesh grid. The
// `chips` directive must precede every chip-scoped directive; in a cluster
// plan every machine-level directive must carry `chip=r,c` so the splitter
// knows which chip's injector owns it. Any directive may carry a unique
// `id=N` label (duplicates are a parse error):
//
//   chips 2x2
//   chip-crash chip=0,1 at=500000 id=1          # chip dies, forever
//   chip-stall chip=1,0 at=200000 for=300000    # host runtime freezes
//   xmesh from=0,0 to=0,1 at=100000 for=50000   # directed bridge link down
//   xmesh from=1,0 to=0,0 at=0 for=20000 flap=3 period=150000
//   notice-drop chip=1,1 at=0 for=0 count=2     # completion notices lost
//   notice-flip chip=1,1 at=0 for=0 count=1     # ... or CRC-corrupted
//   kill chip=0,0 core=2,3 at=120000            # machine fault, one chip
//
// Parse errors carry `source:line: message` so a bad plan file points at
// the offending line, same as the workload parser.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coords.hpp"
#include "sim/engine.hpp"

namespace epi::fault {

/// "never": the clear-time of a permanently failed resource.
inline constexpr sim::Cycles kNever = ~sim::Cycles{0};

/// Base class of every fault-machinery error. Recovery layers (scheduler
/// re-execution, transfer retry) catch this to tell an injected-fault
/// failure apart from a genuine kernel bug.
class FaultError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// No mesh route exists between two cores (XY and YX both cross a
/// permanently failed link).
class UnroutableError : public FaultError {
  using FaultError::FaultError;
};

/// A CRC-checked transfer still mismatched after the bounded retries.
class TransferError : public FaultError {
  using FaultError::FaultError;
};

enum class FaultKind : std::uint8_t {
  KillCore,    // core stops executing at `at`, forever
  StallCore,   // core freezes for [at, at+duration)
  LinkFail,    // directed mesh link down for [at, at+duration) or forever
  ElinkFail,   // whole eLink (write or read network) down likewise
  ElinkFlip,   // next `count` eLink transfers in-window get one flipped bit
  MemFlip,     // next `count` DRAM/scratchpad writes in-window get one flip
  // ---- chip-scoped (cluster) kinds, see fault/cluster.hpp ----------------
  ChipCrash,   // the whole chip (engine + host runtime) dies at `at`
  ChipStall,   // the chip's host runtime freezes for [at, at+duration)
  XMeshFail,   // directed xMesh bridge link chip->chip2 down (can flap)
  NoticeDrop,  // next `count` completion notices sent by `chip` are lost
  NoticeFlip,  // next `count` notices get one flipped bit (CRC catches it)
};

[[nodiscard]] const char* to_string(FaultKind k) noexcept;

/// Chip-scoped kinds live in the cluster injector, not a Machine's.
[[nodiscard]] constexpr bool is_chip_scoped(FaultKind k) noexcept {
  return k == FaultKind::ChipCrash || k == FaultKind::ChipStall ||
         k == FaultKind::XMeshFail || k == FaultKind::NoticeDrop ||
         k == FaultKind::NoticeFlip;
}

struct FaultEvent {
  FaultKind kind = FaultKind::KillCore;
  sim::Cycles at = 0;        // cycle the fault takes effect
  sim::Cycles duration = 0;  // 0 = permanent (KillCore is always permanent)
  arch::CoreCoord core{};    // KillCore/StallCore; LinkFail router; MemFlip scratch target
  arch::Dir dir = arch::Dir::North;  // LinkFail: failed output direction
  std::uint8_t elink = 0;    // ElinkFail/ElinkFlip: 0 = write network, 1 = read
  std::uint32_t count = 1;   // ElinkFlip/MemFlip/NoticeDrop/NoticeFlip budget
  bool scratch = false;      // MemFlip: scratchpad writes (else DRAM writes)
  bool core_any = true;      // MemFlip scratch: any core (else `core` only)
  // ---- cluster fields ----------------------------------------------------
  std::uint32_t id = 0;      // optional unique label (0 = unlabeled)
  arch::CoreCoord chip{};    // subject chip on the chip grid; also scopes
                             // machine-level events in a cluster plan
  bool has_chip = false;     // machine-level event carries a chip= scope
  arch::CoreCoord chip2{};   // XMeshFail: destination chip of the dead link
  std::uint32_t flap = 1;    // XMeshFail: outage repetitions (1 = one window)
  sim::Cycles period = 0;    // XMeshFail: cycles between repetition starts
};

struct FaultPlan {
  std::uint64_t seed = 1;  // drives the injector's random choices
  std::vector<FaultEvent> events;
  // Chip grid of a cluster plan (the `chips RxC` directive); 0x0 = a plain
  // single-machine plan.
  unsigned chip_rows = 0;
  unsigned chip_cols = 0;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] bool cluster() const noexcept {
    return chip_rows != 0 && chip_cols != 0;
  }
};

/// Parameters for a seeded random plan. Counts are exact (generate() emits
/// precisely that many events of each kind); only the *placement* in space
/// and time is random, and timed faults draw their durations around fixed
/// per-kind means.
struct ChaosConfig {
  std::uint64_t seed = 1;
  arch::MeshDims dims{};
  sim::Cycles horizon = 1'000'000;  // faults injected in [0, horizon)
  unsigned core_kills = 0;
  unsigned core_stalls = 0;
  unsigned link_faults = 0;
  double transient_link_prob = 0.75;   // rest are permanent
  unsigned elink_outages = 0;          // transient whole-eLink outages
  unsigned elink_flips = 0;  // single-corruption flip events on the eLink
  unsigned mem_flips = 0;    // single-corruption DRAM write flips
  // ---- cluster chaos (chip-scoped events; needs a chip grid) -------------
  unsigned chip_rows = 0;    // 0x0 = single-chip plan, no chip events
  unsigned chip_cols = 0;
  unsigned chip_crashes = 0;
  unsigned chip_stalls = 0;
  unsigned xmesh_faults = 0;                 // directed bridge-link outages
  unsigned notice_drops = 0;                 // lost completion notices
  unsigned notice_flips = 0;                 // CRC-corrupted notices
};

/// Deterministically expand a ChaosConfig into a concrete plan.
[[nodiscard]] FaultPlan generate(const ChaosConfig& cfg);

/// Serialise a plan in the text format (deterministic: fixed field order,
/// one directive per line; parse(save(p)) == p).
[[nodiscard]] std::string save(const FaultPlan& plan);

/// Parse the text format. Throws FaultError with `source:line: message`
/// on malformed input. Blank lines and `#` comments are ignored.
[[nodiscard]] FaultPlan parse(std::istream& in, const std::string& source = "fault-plan");
[[nodiscard]] FaultPlan load_file(const std::string& path);

}  // namespace epi::fault
