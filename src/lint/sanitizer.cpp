#include "lint/sanitizer.hpp"

#include <cstdio>

namespace epi::lint {

namespace {

constexpr int kUninitRead = 0;
constexpr int kRace = 1;

constexpr const char* pass_name(int id) noexcept {
  return id == kUninitRead ? "uninit-read" : "race";
}

std::string hex(arch::Addr a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08X", a);
  return buf;
}

arch::CoreCoord unkey(std::uint32_t k) noexcept {
  return arch::CoreCoord{k >> 16, k & 0xFFFFu};
}

}  // namespace

void MemSanitizer::on_write(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                            sim::Cycles now) {
  for (arch::Addr b = a; b < a + n; ++b) {
    Word& w = word(b);
    w.init_mask |= static_cast<std::uint8_t>(1u << (b & 3u));
    w.written = true;
    w.writer = key(issuer);
    w.write_time = now;
  }
}

void MemSanitizer::on_read(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                           sim::Cycles now) {
  (void)now;
  const std::uint32_t me = key(issuer);
  const auto sync_it = last_sync_.find(me);
  const sim::Cycles last_sync = sync_it == last_sync_.end() ? 0 : sync_it->second;
  for (arch::Addr b = a; b < a + n; ++b) {
    Word& w = word(b);
    if (!(w.init_mask & (1u << (b & 3u)))) {
      report(kUninitRead, b, me,
             "core " + arch::to_string(issuer) + " reads uninitialised byte at " +
                 hex(b));
      // Damp repeats: treat as initialised after the first report.
      w.init_mask |= static_cast<std::uint8_t>(1u << (b & 3u));
      continue;
    }
    // Race: another core wrote this word after our last acquire. Writes at
    // t=0 are preloads (host initialisation) and never race.
    if (w.written && w.writer != me && w.write_time > 0 &&
        last_sync < w.write_time) {
      const arch::Addr wa = b & ~arch::Addr{3};
      report(kRace, wa, me,
             "core " + arch::to_string(issuer) + " reads " + hex(wa) +
                 " written by core " + arch::to_string(unkey(w.writer)) +
                 " without an intervening flag wait (unsynchronised "
                 "read-after-remote-write)");
    }
  }
}

void MemSanitizer::on_sync(arch::CoreCoord issuer, sim::Cycles now) {
  sim::Cycles& t = last_sync_[key(issuer)];
  if (now > t) t = now;
}

void MemSanitizer::report(int pass, arch::Addr a, std::uint32_t reader,
                          std::string msg) {
  // One finding per (pass, word, reader): spin-heavy programs would
  // otherwise flood the report with the same defect.
  if (!reported_.emplace(pass, a & ~arch::Addr{3}, reader).second) return;
  Finding f;
  f.pass = pass_name(pass);
  f.severity = Severity::Error;
  f.message = std::move(msg);
  findings_.push_back(std::move(f));
}

std::size_t MemSanitizer::count(const char* pass) const {
  std::size_t n = 0;
  for (const auto& f : findings_) {
    if (f.pass == pass) ++n;
  }
  return n;
}

}  // namespace epi::lint
