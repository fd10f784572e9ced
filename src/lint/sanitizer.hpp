#pragma once
// Runtime memory sanitizer: shadow memory over the MemorySystem.
//
// Two defect classes the paper's programming model makes easy to write and
// hard to see:
//
//   uninit-read  (error)  a core reads bytes nothing ever wrote -- typically
//                         a kernel consuming a buffer before the host (or a
//                         DMA) filled it.
//   race         (error)  a core reads a word another core wrote, without an
//                         intervening synchronisation acquire (flag wait or
//                         mutex TESTSET) on the reader's side -- the
//                         Listing-1/2 hazard: consuming a neighbour's halo
//                         before its "data ready" flag said so.
//
// The shadow keeps, per 4-byte word: an init bitmask (per byte), the last
// writer core and the write time. Happens-before is tracked per reader core
// as the time of its latest acquire; a remote write later than that is a
// race. Host preloads at t=0 count as initialisation, never as racing
// writes.

#include <cstddef>
#include <cstdint>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "lint/finding.hpp"
#include "mem/memory_system.hpp"

namespace epi::lint {

class MemSanitizer final : public mem::MemoryHook {
public:
  /// Attaches to `mem` for the sanitizer's whole lifetime, after any hook
  /// already there; the destructor detaches it before the shadow dies.
  explicit MemSanitizer(mem::MemorySystem& mem) : mem_(mem) { mem_.add_hook(this); }
  ~MemSanitizer() override { mem_.remove_hook(this); }
  MemSanitizer(const MemSanitizer&) = delete;
  MemSanitizer& operator=(const MemSanitizer&) = delete;

  void on_write(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
                sim::Cycles now) override;
  void on_read(arch::Addr a, std::size_t n, arch::CoreCoord issuer,
               sim::Cycles now) override;
  void on_sync(arch::CoreCoord issuer, sim::Cycles now) override;

  [[nodiscard]] const std::vector<Finding>& findings() const noexcept {
    return findings_;
  }
  /// Number of findings from the given pass ("uninit-read" or "race").
  [[nodiscard]] std::size_t count(const char* pass) const;

private:
  struct Word {
    std::uint8_t init_mask = 0;  // bit b: byte b of the word was written
    bool written = false;        // writer/write_time are meaningful
    std::uint32_t writer = 0;    // packed CoreCoord of the last writer
    sim::Cycles write_time = 0;
  };

  static std::uint32_t key(arch::CoreCoord c) noexcept {
    return (c.row << 16) | c.col;
  }
  Word& word(arch::Addr a) { return shadow_[a >> 2]; }

  void report(int pass, arch::Addr a, std::uint32_t reader, std::string msg);

  mem::MemorySystem& mem_;
  std::unordered_map<arch::Addr, Word> shadow_;  // keyed by word index a>>2
  std::unordered_map<std::uint32_t, sim::Cycles> last_sync_;  // per core key
  std::set<std::tuple<int, arch::Addr, std::uint32_t>> reported_;
  std::vector<Finding> findings_;
};

}  // namespace epi::lint
