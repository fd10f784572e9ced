#pragma once
// Diagnostic records shared by the static analyzer (lint.hpp) and the
// runtime memory sanitizer (sanitizer.hpp). A Finding is one defect,
// attributed to a pass, with the assembler's source-line tracking when the
// program came through epi::isa::assemble.

#include <cstddef>
#include <string>
#include <vector>

namespace epi::lint {

enum class Severity { Note, Warning, Error };

[[nodiscard]] constexpr const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

struct Finding {
  static constexpr std::size_t kNoInstr = ~std::size_t{0};

  std::string pass;                // e.g. "use-before-def", "bank-straddle"
  Severity severity = Severity::Warning;
  std::size_t instr = kNoInstr;    // instruction index, kNoInstr when none
  unsigned line = 0;               // 1-based source line, 0 when unknown
  std::string message;

  /// Render as "file:line: severity: message [pass]" -- the classic
  /// compiler-diagnostic shape, so editors and CI greps pick it up. When
  /// the program carries no source-line tracking (hand-built Programs),
  /// fall back to the instruction index as "file:<instr#i>:" rather than
  /// printing a misleading "file:0:"; with neither, just "file:".
  [[nodiscard]] std::string format(const std::string& file) const {
    std::string out = file;
    if (line > 0) {
      out += ':';
      out += std::to_string(line);
    } else if (instr != kNoInstr) {
      out += ":<instr#";
      out += std::to_string(instr);
      out += '>';
    }
    return out + ": " + severity_name(severity) + ": " + message + " [" + pass +
           "]";
  }
};

/// True if any finding is at or above `s`.
[[nodiscard]] inline bool any_at_least(const std::vector<Finding>& fs, Severity s) {
  for (const auto& f : fs) {
    if (f.severity >= s) return true;
  }
  return false;
}

}  // namespace epi::lint
