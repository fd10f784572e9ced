#include "sched/allocator.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace epi::sched {

MeshAllocator::MeshAllocator(arch::MeshDims dims)
    : dims_(dims),
      used_(dims.core_count(), 0),
      quarantined_(dims.core_count(), 0),
      last_seq_(dims.core_count(), 0),
      free_(dims.core_count()) {}

bool MeshAllocator::rect_free(unsigned r0, unsigned c0, unsigned rows,
                              unsigned cols) const noexcept {
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      if (used_[(r0 + r) * dims_.cols + (c0 + c)]) return false;
    }
  }
  return true;
}

void MeshAllocator::mark(unsigned r0, unsigned c0, unsigned rows, unsigned cols,
                         bool used) {
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      std::uint8_t& cell = used_[(r0 + r) * dims_.cols + (c0 + c)];
      if (used) {
        cell = 1;
        --free_;
      } else {
        if (!cell) {
          throw std::logic_error("MeshAllocator::free of a core not allocated at (" +
                                 std::to_string(r0 + r) + "," + std::to_string(c0 + c) +
                                 ")");
        }
        cell = 0;
        ++free_;
      }
    }
  }
}

void MeshAllocator::stamp(unsigned r0, unsigned c0, unsigned rows, unsigned cols) {
  ++seq_;
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      last_seq_[(r0 + r) * dims_.cols + (c0 + c)] = seq_;
    }
  }
}

std::optional<Placement> MeshAllocator::place(unsigned rows, unsigned cols) {
  if (rows == 0 || cols == 0) return std::nullopt;
  const auto try_shape = [&](unsigned pr, unsigned pc,
                             bool rotated) -> std::optional<Placement> {
    if (pr > dims_.rows || pc > dims_.cols || pr * pc > free_) return std::nullopt;
    for (unsigned r0 = 0; r0 + pr <= dims_.rows; ++r0) {
      for (unsigned c0 = 0; c0 + pc <= dims_.cols; ++c0) {
        if (rect_free(r0, c0, pr, pc)) {
          mark(r0, c0, pr, pc, true);
          stamp(r0, c0, pr, pc);
          return Placement{{r0, c0}, pr, pc, rotated};
        }
      }
    }
    return std::nullopt;
  };
  if (auto p = try_shape(rows, cols, false)) return p;
  if (rows != cols) return try_shape(cols, rows, true);
  return std::nullopt;
}

std::optional<Placement> MeshAllocator::place_near(
    unsigned rows, unsigned cols, const std::vector<Placement>& anchors) {
  if (anchors.empty()) return place(rows, cols);
  if (rows == 0 || cols == 0) return std::nullopt;
  // Scored exhaustive scan per orientation. Centres are doubled so the score
  // stays integral (a rect's centre sits on half-grid coordinates).
  const auto try_shape = [&](unsigned pr, unsigned pc,
                             bool rotated) -> std::optional<Placement> {
    if (pr > dims_.rows || pc > dims_.cols || pr * pc > free_) return std::nullopt;
    long best = -1;
    unsigned br = 0, bc = 0;
    for (unsigned r0 = 0; r0 + pr <= dims_.rows; ++r0) {
      for (unsigned c0 = 0; c0 + pc <= dims_.cols; ++c0) {
        if (!rect_free(r0, c0, pr, pc)) continue;
        long score = 0;
        const long cr = 2l * r0 + pr - 1;
        const long cc = 2l * c0 + pc - 1;
        for (const Placement& a : anchors) {
          const long ar = 2l * a.origin.row + a.rows - 1;
          const long ac = 2l * a.origin.col + a.cols - 1;
          score += std::abs(cr - ar) + std::abs(cc - ac);
        }
        if (best < 0 || score < best) {
          best = score;
          br = r0;
          bc = c0;
        }
      }
    }
    if (best < 0) return std::nullopt;
    mark(br, bc, pr, pc, true);
    stamp(br, bc, pr, pc);
    return Placement{{br, bc}, pr, pc, rotated};
  };
  if (auto p = try_shape(rows, cols, false)) return p;
  if (rows != cols) return try_shape(cols, rows, true);
  return std::nullopt;
}

void MeshAllocator::free(const Placement& p) {
  if (p.origin.row + p.rows > dims_.rows || p.origin.col + p.cols > dims_.cols) {
    throw std::logic_error("MeshAllocator::free of a rectangle outside the mesh");
  }
  mark(p.origin.row, p.origin.col, p.rows, p.cols, false);
}

void MeshAllocator::quarantine(const Placement& p) {
  if (p.origin.row + p.rows > dims_.rows || p.origin.col + p.cols > dims_.cols) {
    throw std::logic_error("MeshAllocator::quarantine of a rectangle outside the mesh");
  }
  for (unsigned r = 0; r < p.rows; ++r) {
    for (unsigned c = 0; c < p.cols; ++c) {
      const std::size_t cell =
          (p.origin.row + r) * dims_.cols + (p.origin.col + c);
      if (!used_[cell]) {
        throw std::logic_error("MeshAllocator::quarantine of a core not allocated");
      }
      if (!quarantined_[cell]) {
        quarantined_[cell] = 1;
        ++quarantined_count_;
      }
    }
  }
}

bool MeshAllocator::rect_healthy(unsigned r0, unsigned c0, unsigned rows,
                                 unsigned cols) const noexcept {
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      if (quarantined_[(r0 + r) * dims_.cols + (c0 + c)]) return false;
    }
  }
  return true;
}

bool MeshAllocator::fits_ever(unsigned rows, unsigned cols) const noexcept {
  if (rows == 0 || cols == 0) return false;
  const auto shape_fits = [&](unsigned pr, unsigned pc) noexcept {
    if (pr > dims_.rows || pc > dims_.cols) return false;
    if (quarantined_count_ == 0) return true;
    for (unsigned r0 = 0; r0 + pr <= dims_.rows; ++r0) {
      for (unsigned c0 = 0; c0 + pc <= dims_.cols; ++c0) {
        if (rect_healthy(r0, c0, pr, pc)) return true;
      }
    }
    return false;
  };
  if (shape_fits(rows, cols)) return true;
  return rows != cols && shape_fits(cols, rows);
}

unsigned MeshAllocator::largest_free_rect() const noexcept {
  // Classic largest-rectangle-of-zeros: per-column free-run histogram, then
  // for each cell extend left/right at its height. O(rows * cols^2) on an
  // 8x8 grid is nothing.
  std::vector<unsigned> height(dims_.cols, 0);
  unsigned best = 0;
  for (unsigned r = 0; r < dims_.rows; ++r) {
    for (unsigned c = 0; c < dims_.cols; ++c) {
      height[c] = used_[r * dims_.cols + c] ? 0 : height[c] + 1;
    }
    for (unsigned c = 0; c < dims_.cols; ++c) {
      if (height[c] == 0) continue;
      unsigned h = height[c];
      for (unsigned c2 = c; c2 < dims_.cols && height[c2] > 0; ++c2) {
        h = std::min(h, height[c2]);
        best = std::max(best, h * (c2 - c + 1));
      }
    }
  }
  return best;
}

double MeshAllocator::fragmentation() const noexcept {
  if (free_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_rect()) / static_cast<double>(free_);
}

}  // namespace epi::sched
