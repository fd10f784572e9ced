#include "fault/plan.hpp"

#include <fstream>
#include <istream>
#include <set>
#include <sstream>

#include "sim/random.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace epi::fault {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::KillCore: return "kill";
    case FaultKind::StallCore: return "stall";
    case FaultKind::LinkFail: return "link";
    case FaultKind::ElinkFail: return "elink";
    case FaultKind::ElinkFlip: return "elink-flip";
    case FaultKind::MemFlip: return "mem-flip";
    case FaultKind::ChipCrash: return "chip-crash";
    case FaultKind::ChipStall: return "chip-stall";
    case FaultKind::XMeshFail: return "xmesh";
    case FaultKind::NoticeDrop: return "notice-drop";
    case FaultKind::NoticeFlip: return "notice-flip";
  }
  return "?";
}

namespace {

bool parse_dir(const std::string& s, arch::Dir& out) {
  if (s == "north") out = arch::Dir::North;
  else if (s == "south") out = arch::Dir::South;
  else if (s == "west") out = arch::Dir::West;
  else if (s == "east") out = arch::Dir::East;
  else return false;
  return true;
}

/// Spread `n` event times over [0, horizon) with a uniform draw each.
sim::Cycles draw_time(sim::Rng& rng, sim::Cycles horizon) {
  return horizon == 0 ? 0 : rng.next_below(horizon);
}

/// Mean-centred duration: uniform in [mean/2, 3*mean/2), never zero (zero
/// means permanent in the plan format).
sim::Cycles draw_duration(sim::Rng& rng, sim::Cycles mean) {
  if (mean == 0) return 1;
  return mean / 2 + rng.next_below(mean) + 1;
}

// Mean durations (cycles) of the chaos generator's timed faults, and the
// chance that an xmesh outage flaps rather than opening a single window.
constexpr sim::Cycles kStallCycles = 200'000;
constexpr sim::Cycles kLinkOutageCycles = 100'000;
constexpr sim::Cycles kElinkOutageCycles = 20'000;
constexpr sim::Cycles kChipStallCycles = 300'000;
constexpr sim::Cycles kXmeshOutageCycles = 120'000;
constexpr double kXmeshFlapProb = 0.5;

arch::CoreCoord draw_core(sim::Rng& rng, arch::MeshDims dims) {
  return dims.coord_of(static_cast<unsigned>(rng.next_below(dims.core_count())));
}

}  // namespace

FaultPlan generate(const ChaosConfig& cfg) {
  sim::Rng rng(cfg.seed);
  FaultPlan plan;
  plan.seed = cfg.seed;
  auto add = [&](FaultEvent e) { plan.events.push_back(e); };

  for (unsigned i = 0; i < cfg.core_kills; ++i) {
    FaultEvent e;
    e.kind = FaultKind::KillCore;
    e.core = draw_core(rng, cfg.dims);
    e.at = draw_time(rng, cfg.horizon);
    add(e);
  }
  for (unsigned i = 0; i < cfg.core_stalls; ++i) {
    FaultEvent e;
    e.kind = FaultKind::StallCore;
    e.core = draw_core(rng, cfg.dims);
    e.at = draw_time(rng, cfg.horizon);
    e.duration = draw_duration(rng, kStallCycles);
    add(e);
  }
  for (unsigned i = 0; i < cfg.link_faults; ++i) {
    FaultEvent e;
    e.kind = FaultKind::LinkFail;
    // Redraw until the direction points at a real neighbour: a boundary
    // link that nothing can ever route over would waste a fault.
    arch::CoreCoord nb;
    do {
      e.core = draw_core(rng, cfg.dims);
      e.dir = static_cast<arch::Dir>(rng.next_below(4));
    } while (!cfg.dims.neighbour(e.core, e.dir, nb));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = rng.next_float() < cfg.transient_link_prob
                     ? draw_duration(rng, kLinkOutageCycles)
                     : 0;
    add(e);
  }
  for (unsigned i = 0; i < cfg.elink_outages; ++i) {
    FaultEvent e;
    e.kind = FaultKind::ElinkFail;
    e.elink = static_cast<std::uint8_t>(rng.next_below(2));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = draw_duration(rng, kElinkOutageCycles);
    add(e);
  }
  for (unsigned i = 0; i < cfg.elink_flips; ++i) {
    FaultEvent e;
    e.kind = FaultKind::ElinkFlip;
    e.elink = static_cast<std::uint8_t>(rng.next_below(2));
    e.at = draw_time(rng, cfg.horizon);
    e.duration = 0;  // armed from `at` onward until the budget is spent
    e.count = 1;
    add(e);
  }
  for (unsigned i = 0; i < cfg.mem_flips; ++i) {
    FaultEvent e;
    e.kind = FaultKind::MemFlip;
    e.scratch = false;  // chaos plans corrupt DRAM, where validation can see it
    e.at = draw_time(rng, cfg.horizon);
    e.duration = 0;
    e.count = 1;
    add(e);
  }

  // ---- cluster chaos: chip-scoped events (all drawn after the machine
  // kinds so single-chip configs keep their historical byte-identity) ------
  if (cfg.chip_rows != 0 && cfg.chip_cols != 0) {
    plan.chip_rows = cfg.chip_rows;
    plan.chip_cols = cfg.chip_cols;
    const arch::MeshDims grid{cfg.chip_rows, cfg.chip_cols};
    // A cluster plan requires every machine-level event to name its chip.
    for (FaultEvent& e : plan.events) {
      e.chip = draw_core(rng, grid);
      e.has_chip = true;
    }
    for (unsigned i = 0; i < cfg.chip_crashes; ++i) {
      FaultEvent e;
      e.kind = FaultKind::ChipCrash;
      e.chip = draw_core(rng, grid);
      // A crash in the opening cycles leaves nothing to fail over; land it
      // once traffic is flowing.
      e.at = cfg.horizon / 4 + draw_time(rng, cfg.horizon - cfg.horizon / 4);
      add(e);
    }
    for (unsigned i = 0; i < cfg.chip_stalls; ++i) {
      FaultEvent e;
      e.kind = FaultKind::ChipStall;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = draw_duration(rng, kChipStallCycles);
      add(e);
    }
    for (unsigned i = 0; i < cfg.xmesh_faults; ++i) {
      FaultEvent e;
      e.kind = FaultKind::XMeshFail;
      e.chip = draw_core(rng, grid);
      do {
        e.chip2 = draw_core(rng, grid);
      } while (grid.core_count() > 1 && e.chip2 == e.chip);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = draw_duration(rng, kXmeshOutageCycles);
      if (rng.next_float() < kXmeshFlapProb) {
        e.flap = 2 + static_cast<std::uint32_t>(rng.next_below(3));
        e.period = e.duration * 2 + draw_duration(rng, kXmeshOutageCycles);
      }
      add(e);
    }
    for (unsigned i = 0; i < cfg.notice_drops; ++i) {
      FaultEvent e;
      e.kind = FaultKind::NoticeDrop;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = 0;  // armed from `at` onward until the budget is spent
      e.count = 1;
      add(e);
    }
    for (unsigned i = 0; i < cfg.notice_flips; ++i) {
      FaultEvent e;
      e.kind = FaultKind::NoticeFlip;
      e.chip = draw_core(rng, grid);
      e.at = draw_time(rng, cfg.horizon);
      e.duration = 0;
      e.count = 1;
      add(e);
    }
  }
  return plan;
}

std::string save(const FaultPlan& plan) {
  std::string out = "# epi-fault plan (one fault per line)\n";
  out += util::format("seed %llu\n", static_cast<unsigned long long>(plan.seed));
  if (plan.cluster()) {
    out += util::format("chips %ux%u\n", plan.chip_rows, plan.chip_cols);
  }
  for (const FaultEvent& e : plan.events) {
    const auto at = static_cast<unsigned long long>(e.at);
    const auto dur = static_cast<unsigned long long>(e.duration);
    // Machine-level events in a cluster plan lead with their chip scope.
    const std::string scope =
        e.has_chip && !is_chip_scoped(e.kind)
            ? util::format("chip=%u,%u ", e.chip.row, e.chip.col)
            : std::string();
    std::string line;
    switch (e.kind) {
      case FaultKind::KillCore:
        line = util::format("kill %score=%u,%u at=%llu", scope.c_str(),
                            e.core.row, e.core.col, at);
        break;
      case FaultKind::StallCore:
        line = util::format("stall %score=%u,%u at=%llu for=%llu", scope.c_str(),
                            e.core.row, e.core.col, at, dur);
        break;
      case FaultKind::LinkFail:
        line = util::format("link %srouter=%u,%u dir=%s at=%llu for=%llu",
                            scope.c_str(), e.core.row, e.core.col,
                            arch::to_string(e.dir), at, dur);
        break;
      case FaultKind::ElinkFail:
        line = util::format("elink %skind=%s at=%llu for=%llu", scope.c_str(),
                            e.elink == 0 ? "write" : "read", at, dur);
        break;
      case FaultKind::ElinkFlip:
        line = util::format("elink-flip %skind=%s at=%llu for=%llu count=%u",
                            scope.c_str(), e.elink == 0 ? "write" : "read", at,
                            dur, e.count);
        break;
      case FaultKind::MemFlip:
        if (e.scratch && !e.core_any) {
          line = util::format(
              "mem-flip %sregion=scratch core=%u,%u at=%llu for=%llu count=%u",
              scope.c_str(), e.core.row, e.core.col, at, dur, e.count);
        } else {
          line = util::format("mem-flip %sregion=%s at=%llu for=%llu count=%u",
                              scope.c_str(), e.scratch ? "scratch" : "dram", at,
                              dur, e.count);
        }
        break;
      case FaultKind::ChipCrash:
        line = util::format("chip-crash chip=%u,%u at=%llu", e.chip.row,
                            e.chip.col, at);
        break;
      case FaultKind::ChipStall:
        line = util::format("chip-stall chip=%u,%u at=%llu for=%llu", e.chip.row,
                            e.chip.col, at, dur);
        break;
      case FaultKind::XMeshFail:
        line = util::format("xmesh from=%u,%u to=%u,%u at=%llu for=%llu",
                            e.chip.row, e.chip.col, e.chip2.row, e.chip2.col,
                            at, dur);
        if (e.flap > 1) {
          line += util::format(" flap=%u period=%llu", e.flap,
                               static_cast<unsigned long long>(e.period));
        }
        break;
      case FaultKind::NoticeDrop:
      case FaultKind::NoticeFlip:
        line = util::format("%s chip=%u,%u at=%llu for=%llu count=%u",
                            to_string(e.kind), e.chip.row, e.chip.col, at, dur,
                            e.count);
        break;
    }
    if (e.id != 0) line += util::format(" id=%u", e.id);
    out += line + "\n";
  }
  return out;
}

FaultPlan parse(std::istream& in, const std::string& source) {
  FaultPlan plan;
  std::string line;
  unsigned lineno = 0;
  std::set<std::uint32_t> seen_ids;
  while (std::getline(in, line)) {
    ++lineno;
    const auto fail = [&](const std::string& why) -> FaultError {
      return FaultError(util::format("%s:%u: %s", source.c_str(), lineno, why.c_str()));
    };
    const auto check_chip = [&](arch::CoreCoord c) {
      if (c.row >= plan.chip_rows || c.col >= plan.chip_cols) {
        throw fail(util::format(
            "chip coordinate (%u,%u) outside the %ux%u chip grid", c.row,
            c.col, plan.chip_rows, plan.chip_cols));
      }
    };
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;  // blank or comment

    if (word == "seed") {
      std::string val;
      if (!(ls >> val)) throw fail("seed directive needs a value");
      try {
        cli::read_into("field 'seed'", val, plan.seed);
      } catch (const cli::UsageError& e) {
        throw fail(e.what());
      }
      continue;
    }

    if (word == "chips") {
      if (plan.cluster()) throw fail("duplicate 'chips' declaration");
      if (!plan.events.empty()) {
        throw fail("'chips RxC' must precede every fault directive");
      }
      std::string val;
      if (!(ls >> val)) throw fail("chips directive needs RxC (e.g. 2x2)");
      const auto x = val.find('x');
      if (x == std::string::npos) throw fail("chips value '" + val + "' is not RxC (e.g. 2x2)");
      try {
        const std::string_view v = val;
        cli::read_into("field 'chips'", v.substr(0, x), plan.chip_rows, 1, cli::kMaxChipExtent);
        cli::read_into("field 'chips'", v.substr(x + 1), plan.chip_cols, 1, cli::kMaxChipExtent);
      } catch (const cli::UsageError& e) {
        throw fail(e.what());
      }
      continue;
    }

    FaultEvent e;
    if (word == "kill") e.kind = FaultKind::KillCore;
    else if (word == "stall") e.kind = FaultKind::StallCore;
    else if (word == "link") e.kind = FaultKind::LinkFail;
    else if (word == "elink") e.kind = FaultKind::ElinkFail;
    else if (word == "elink-flip") e.kind = FaultKind::ElinkFlip;
    else if (word == "mem-flip") e.kind = FaultKind::MemFlip;
    else if (word == "chip-crash") e.kind = FaultKind::ChipCrash;
    else if (word == "chip-stall") e.kind = FaultKind::ChipStall;
    else if (word == "xmesh") e.kind = FaultKind::XMeshFail;
    else if (word == "notice-drop") e.kind = FaultKind::NoticeDrop;
    else if (word == "notice-flip") e.kind = FaultKind::NoticeFlip;
    else throw fail("unknown directive '" + word + "'");

    if (is_chip_scoped(e.kind) && !plan.cluster()) {
      throw fail(std::string("'") + to_string(e.kind) +
                 "' needs a prior 'chips RxC' declaration");
    }

    bool have_core = false, have_at = false, have_for = false;
    bool have_region = false, have_kind = false;
    bool have_from = false, have_to = false, have_flap = false,
         have_period = false;
    while (ls >> word) {
      const auto eq = word.find('=');
      if (eq == std::string::npos) throw fail("field '" + word + "' is not key=value");
      const std::string key = word.substr(0, eq);
      const std::string val = word.substr(eq + 1);
      const std::string field = "field '" + key + "'";
      // Core coordinates lie on the largest mesh, chip coordinates on the
      // largest chip grid (and then on the declared one, check_chip).
      const auto parse_coord = [&](arch::CoreCoord& out, std::uint64_t extent) {
        const auto comma = val.find(',');
        if (comma == std::string::npos) throw fail("'" + key + "' needs row,col");
        const std::string_view v = val;
        cli::read_into(field, v.substr(0, comma), out.row, 0, extent - 1);
        cli::read_into(field, v.substr(comma + 1), out.col, 0, extent - 1);
      };
      try {
        if (key == "core" || key == "router") {
          parse_coord(e.core, cli::kMaxMeshExtent);
          have_core = true;
        } else if (key == "chip" || key == "from") {
          if (key == "from" && e.kind != FaultKind::XMeshFail) {
            throw fail("'from' only applies to xmesh faults");
          }
          if (key == "chip" && e.kind == FaultKind::XMeshFail) {
            throw fail("xmesh faults take from=/to=, not chip=");
          }
          if (!plan.cluster()) {
            throw fail("'" + key + "=' needs a prior 'chips RxC' declaration");
          }
          parse_coord(e.chip, cli::kMaxChipExtent);
          check_chip(e.chip);
          e.has_chip = true;
          have_from = true;
        } else if (key == "to") {
          if (e.kind != FaultKind::XMeshFail) {
            throw fail("'to' only applies to xmesh faults");
          }
          parse_coord(e.chip2, cli::kMaxChipExtent);
          check_chip(e.chip2);
          have_to = true;
        } else if (key == "flap") {
          cli::read_into(field, val, e.flap);
          have_flap = true;
        } else if (key == "period") {
          cli::read_into(field, val, e.period, 0, cli::kMaxCycles);
          have_period = true;
        } else if (key == "id") {
          cli::read_into(field, val, e.id);
          if (e.id == 0) throw fail("id must be a positive integer");
          if (!seen_ids.insert(e.id).second) {
            throw fail(util::format("duplicate fault id %u", e.id));
          }
        } else if (key == "dir") {
          if (!parse_dir(val, e.dir)) throw fail("unknown direction '" + val + "'");
        } else if (key == "at") {
          cli::read_into(field, val, e.at, 0, cli::kMaxCycles);
          have_at = true;
        } else if (key == "for") {
          cli::read_into(field, val, e.duration, 0, cli::kMaxCycles);
          have_for = true;
        } else if (key == "count") {
          cli::read_into(field, val, e.count);
        } else if (key == "kind") {
          if (val == "write") e.elink = 0;
          else if (val == "read") e.elink = 1;
          else throw fail("eLink kind must be 'write' or 'read', got '" + val + "'");
          have_kind = true;
        } else if (key == "region") {
          if (val == "dram") e.scratch = false;
          else if (val == "scratch") e.scratch = true;
          else throw fail("region must be 'dram' or 'scratch', got '" + val + "'");
          have_region = true;
        } else {
          throw fail("unknown field '" + key + "'");
        }
      } catch (const cli::UsageError& e) {
        throw fail(e.what());  // a number outside its field's range
      }
    }

    if (!have_at) throw fail("fault needs an at=CYCLE field");
    if (plan.cluster() && !is_chip_scoped(e.kind) && !e.has_chip) {
      throw fail(std::string("machine-level '") + to_string(e.kind) +
                 "' in a cluster plan needs chip=row,col");
    }
    if ((have_flap || have_period) && e.kind != FaultKind::XMeshFail) {
      throw fail("flap/period only apply to xmesh faults");
    }
    switch (e.kind) {
      case FaultKind::KillCore:
        if (!have_core) throw fail("kill needs core=row,col");
        e.duration = 0;
        break;
      case FaultKind::StallCore:
        if (!have_core) throw fail("stall needs core=row,col");
        if (!have_for || e.duration == 0) throw fail("stall needs for=CYCLES > 0");
        break;
      case FaultKind::LinkFail: {
        if (!have_core) throw fail("link needs router=row,col");
        break;
      }
      case FaultKind::ElinkFail:
      case FaultKind::ElinkFlip:
        if (!have_kind) throw fail("eLink fault needs kind=write|read");
        break;
      case FaultKind::MemFlip:
        if (!have_region) throw fail("mem-flip needs region=dram|scratch");
        if (!e.scratch && have_core) throw fail("mem-flip region=dram takes no core");
        break;
      case FaultKind::ChipCrash:
        if (!have_from) throw fail("chip-crash needs chip=row,col");
        e.duration = 0;  // a crash is always permanent
        break;
      case FaultKind::ChipStall:
        if (!have_from) throw fail("chip-stall needs chip=row,col");
        if (!have_for || e.duration == 0) {
          throw fail("chip-stall needs for=CYCLES > 0");
        }
        break;
      case FaultKind::XMeshFail:
        if (!have_from || !have_to) throw fail("xmesh needs from= and to= chips");
        if (e.chip == e.chip2) throw fail("xmesh from= and to= must differ");
        if (e.flap == 0) throw fail("flap must be at least 1");
        if (e.flap > 1 && e.duration == 0) {
          throw fail("a permanent (for=0) xmesh outage cannot flap");
        }
        if (e.flap > 1 && (!have_period || e.period == 0)) {
          throw fail("xmesh flap>1 needs period=CYCLES > 0");
        }
        break;
      case FaultKind::NoticeDrop:
      case FaultKind::NoticeFlip:
        if (!have_from) {
          throw fail(std::string(to_string(e.kind)) + " needs chip=row,col");
        }
        break;
    }
    if (e.count == 0) throw fail("count must be at least 1");
    e.core_any = !(e.kind == FaultKind::MemFlip && e.scratch && have_core);
    plan.events.push_back(e);
  }
  return plan;
}

FaultPlan load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FaultError("cannot open fault plan: " + path);
  return parse(in, path);
}

}  // namespace epi::fault
