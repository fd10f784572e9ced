#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"

namespace epi::trace {

std::string format_number(double v) {
  // Counters are overwhelmingly integral (bytes, cycles, flops); print those
  // exactly. Anything else round-trips via %.17g.
  if (std::floor(v) == v && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Emit one tracer's metadata and events as Chrome process `pid`. Shared by
/// the single-machine and the multi-chip cluster exporters; `first` tracks
/// the comma state across processes in one traceEvents array.
void write_process_events(std::ostream& os, const Tracer& tracer,
                          unsigned pid, const std::string& process_name,
                          bool& first) {
  const std::string p = std::to_string(pid);
  const auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  emit("{\"ph\":\"M\",\"pid\":" + p + ",\"name\":\"process_name\"," +
       "\"args\":{\"name\":\"" + json_escape(process_name) + "\"}}");

  const auto& tracks = tracer.tracks();
  for (std::uint32_t i = 0; i < tracks.size(); ++i) {
    const std::string tid = std::to_string(i + 1);
    emit("{\"ph\":\"M\",\"pid\":" + p + ",\"tid\":" + tid +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(tracks[i].name) + "\"}}");
    emit("{\"ph\":\"M\",\"pid\":" + p + ",\"tid\":" + tid +
         ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
         std::to_string(i) + "}}");
  }

  const auto& counters = tracer.counters();
  for (const Event& ev : tracer.events()) {
    const std::string ts = std::to_string(ev.t);
    switch (ev.type) {
      case Event::Type::Begin: {
        std::string line = "{\"ph\":\"B\",\"pid\":" + p + ",\"tid\":" +
                           std::to_string(ev.track + 1) + ",\"ts\":" + ts +
                           ",\"name\":\"" + json_escape(tracer.str(ev.name)) +
                           "\",\"cat\":\"" + to_string(ev.phase) + "\"";
        if (ev.arg_name[0] != 0 || ev.arg_name[1] != 0) {
          line += ",\"args\":{";
          bool farg = true;
          for (int a = 0; a < 2; ++a) {
            if (ev.arg_name[a] == 0) continue;
            if (!farg) line += ",";
            farg = false;
            line += '"';
            line += json_escape(tracer.str(ev.arg_name[a]));
            line += "\":";
            line += std::to_string(ev.arg[a]);
          }
          line += "}";
        }
        line += "}";
        emit(line);
        break;
      }
      case Event::Type::End:
        emit("{\"ph\":\"E\",\"pid\":" + p + ",\"tid\":" +
             std::to_string(ev.track + 1) + ",\"ts\":" + ts + "}");
        break;
      case Event::Type::Instant: {
        std::string line = "{\"ph\":\"i\",\"pid\":" + p + ",\"tid\":" +
                           std::to_string(ev.track + 1) + ",\"ts\":" + ts +
                           ",\"name\":\"" + json_escape(tracer.str(ev.name)) +
                           "\",\"s\":\"t\"";
        if (ev.arg_name[0] != 0) {
          line += ",\"args\":{\"" + json_escape(tracer.str(ev.arg_name[0])) +
                  "\":" + std::to_string(ev.arg[0]) + "}";
        }
        line += "}";
        emit(line);
        break;
      }
      case Event::Type::Counter:
        emit("{\"ph\":\"C\",\"pid\":" + p + ",\"ts\":" + ts + ",\"name\":\"" +
             json_escape(counters.name(ev.track)) + "\",\"args\":{\"value\":" +
             format_number(ev.value) + "}}");
        break;
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  write_process_events(os, tracer, 1, "epiphany machine", first);
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<ChromeProcess>& processes) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::uint32_t i = 0; i < processes.size(); ++i) {
    write_process_events(os, *processes[i].tracer, i + 1, processes[i].name,
                         first);
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void write_counters_csv(std::ostream& os, const Counters& counters) {
  os << "name,kind,value\n";
  for (Counters::Id id = 0; id < counters.size(); ++id) {
    os << counters.name(id) << ','
       << (counters.kind(id) == Counters::Kind::Monotonic ? "monotonic" : "gauge")
       << ',' << format_number(counters.value(id)) << '\n';
  }
}

void write_summary(std::ostream& os, const Tracer& tracer,
                   const ProfileReport* report, unsigned top_n) {
  const auto& counters = tracer.counters();

  // Aggregate (machine-wide) counters: names without a per-entity '@'.
  util::Table agg({"counter", "value"});
  std::vector<Counters::Id> per_entity;
  for (Counters::Id id = 0; id < counters.size(); ++id) {
    if (counters.name(id).find('@') == std::string::npos) {
      agg.add_row({counters.name(id), format_number(counters.value(id))});
    } else {
      per_entity.push_back(id);
    }
  }
  if (agg.rows() > 0) {
    os << "Aggregate counters:\n";
    agg.print(os);
  }

  if (!per_entity.empty()) {
    std::sort(per_entity.begin(), per_entity.end(),
              [&](Counters::Id a, Counters::Id b) {
                if (counters.value(a) != counters.value(b)) {
                  return counters.value(a) > counters.value(b);
                }
                return counters.name(a) < counters.name(b);
              });
    util::Table top({"counter", "value"});
    for (unsigned i = 0; i < top_n && i < per_entity.size(); ++i) {
      const Counters::Id id = per_entity[i];
      top.add_row({counters.name(id), format_number(counters.value(id))});
    }
    os << "Top " << std::min<std::size_t>(top_n, per_entity.size())
       << " per-entity counters (of " << per_entity.size() << "):\n";
    top.print(os);
  }

  if (report != nullptr && !report->cores.empty()) {
    os << "Cycle attribution over [" << report->window_begin << ", "
       << report->window_end << ") -- " << report->cores.size() << " core(s), "
       << "compute " << util::fmt(100.0 * report->compute_fraction(), 1)
       << "%, comm " << util::fmt(100.0 * report->comm_fraction(), 1)
       << "%, dma-wait " << util::fmt(100.0 * report->dma_wait_fraction(), 1)
       << "%, sync " << util::fmt(100.0 * report->sync_fraction(), 1) << "%\n";

    std::vector<const CorePhaseBreakdown*> rows;
    rows.reserve(report->cores.size());
    for (const auto& c : report->cores) rows.push_back(&c);
    std::sort(rows.begin(), rows.end(),
              [](const CorePhaseBreakdown* a, const CorePhaseBreakdown* b) {
                const auto ka = a->comm + a->dma_wait;
                const auto kb = b->comm + b->dma_wait;
                if (ka != kb) return ka > kb;
                return a->coord < b->coord;
              });
    util::Table t({"core", "compute", "comm", "dma-wait", "sync", "other"});
    for (unsigned i = 0; i < top_n && i < rows.size(); ++i) {
      const auto& c = *rows[i];
      t.add_row({arch::to_string(c.coord), std::to_string(c.compute),
                 std::to_string(c.comm), std::to_string(c.dma_wait),
                 std::to_string(c.sync), std::to_string(c.other)});
    }
    os << "Top " << std::min<std::size_t>(top_n, rows.size())
       << " cores by comm+dma-wait cycles:\n";
    t.print(os);
  }
}

}  // namespace epi::trace
