#pragma once
// Per-eCore 32 KB scratchpad, organised as four 8 KB banks (paper IV-B).
//
// A view of the core's 32 KB, which the MemorySystem's mapping owns, plus
// optional bank-occupancy accounting: maximum
// performance on real silicon requires code fetch, load/store and DMA to hit
// different banks; the `model_bank_conflicts` toggle lets the ablation bench
// quantify that.

#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>

#include "arch/address_map.hpp"
#include "sim/engine.hpp"

namespace epi::mem {

class LocalMemory {
public:
  static constexpr std::size_t kBytes = arch::AddressMap::kLocalMemBytes;
  static constexpr std::size_t kBankBytes = arch::AddressMap::kBankBytes;

  /// View the kBytes at `data`, which must outlive this object.
  explicit LocalMemory(std::byte* data) noexcept : data_(data) {}

  [[nodiscard]] std::span<std::byte> bytes() noexcept { return {data_, kBytes}; }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept { return {data_, kBytes}; }

  /// Span over [offset, offset+n); throws on out-of-range, mirroring the
  /// fact that real scratchpad accesses beyond 32 KB hit other address
  /// windows (a bug in a kernel, which we want loud, not silent).
  [[nodiscard]] std::span<std::byte> span(std::uint32_t offset, std::size_t n) {
    check_range(offset, n);
    return std::span<std::byte>(data_ + offset, n);
  }
  [[nodiscard]] std::span<const std::byte> span(std::uint32_t offset, std::size_t n) const {
    check_range(offset, n);
    return std::span<const std::byte>(data_ + offset, n);
  }

  void write(std::uint32_t offset, std::span<const std::byte> src) {
    check_range(offset, src.size());
    std::memcpy(data_ + offset, src.data(), src.size());
  }
  void read(std::uint32_t offset, std::span<std::byte> dst) const {
    check_range(offset, dst.size());
    std::memcpy(dst.data(), data_ + offset, dst.size());
  }

  // ---- bank-occupancy accounting (ablation support) --------------------
  /// Mark bank containing [offset, offset+n) busy until `until` (DMA side).
  void occupy_banks(std::uint32_t offset, std::size_t n, sim::Cycles until) noexcept {
    const unsigned first = arch::AddressMap::bank_of(offset);
    const unsigned last =
        arch::AddressMap::bank_of(offset + static_cast<std::uint32_t>(n ? n - 1 : 0));
    for (unsigned b = first; b <= last; ++b) {
      if (bank_busy_until_[b] < until) bank_busy_until_[b] = until;
    }
  }
  /// Extra cycles a CPU access at `offset` pays at time `now` due to a
  /// concurrent DMA stream in the same bank.
  [[nodiscard]] sim::Cycles bank_conflict_penalty(std::uint32_t offset,
                                                  sim::Cycles now) const noexcept {
    return now < bank_busy_until_[arch::AddressMap::bank_of(offset)] ? 1 : 0;
  }

private:
  static void check_range(std::uint32_t offset, std::size_t n) {
    if (offset > kBytes || n > kBytes - offset) {
      throw std::out_of_range("LocalMemory access beyond 32 KB scratchpad: offset=" +
                              std::to_string(offset) + " size=" + std::to_string(n));
    }
  }

  std::byte* data_;
  std::array<sim::Cycles, arch::AddressMap::kBankCount> bank_busy_until_{};
};

}  // namespace epi::mem
