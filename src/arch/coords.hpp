#pragma once
// eCore coordinates and mesh geometry.
//
// The Epiphany-IV E64G401 arranges 64 eCores in an 8x8 mesh. Each core has
// a 12-bit core id: the upper 6 bits are the mesh row, the lower 6 bits the
// mesh column, *in absolute chip coordinates*. On the E64G401 the top-left
// core sits at absolute (32, 8) -- core id 0x808 -- which is why the first
// core's local memory aliases globally at 0x80800000 (see AddressMap).

#include <cassert>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace epi::arch {

/// Zero-based coordinate within the modelled mesh (row 0, col 0 = top-left).
struct CoreCoord {
  unsigned row = 0;
  unsigned col = 0;
  friend auto operator<=>(const CoreCoord&, const CoreCoord&) = default;
};

[[nodiscard]] inline std::string to_string(const CoreCoord& c) {
  std::string s = "(";
  s += std::to_string(c.row);
  s += ',';
  s += std::to_string(c.col);
  s += ')';
  return s;
}

/// Number of mesh hops between two cores under dimension-ordered routing.
[[nodiscard]] inline unsigned manhattan_distance(CoreCoord a, CoreCoord b) noexcept {
  const auto d = [](unsigned x, unsigned y) { return x > y ? x - y : y - x; };
  return d(a.row, b.row) + d(a.col, b.col);
}

/// The four mesh neighbours, in the order the paper's stencil uses them.
enum class Dir : unsigned { North = 0, South = 1, West = 2, East = 3 };

[[nodiscard]] constexpr const char* to_string(Dir d) noexcept {
  switch (d) {
    case Dir::North: return "north";
    case Dir::South: return "south";
    case Dir::West: return "west";
    case Dir::East: return "east";
  }
  return "?";
}

/// Mesh dimensions (8x8 for the E64G401; configurable to model the 4096-core
/// roadmap parts the paper speculates about).
struct MeshDims {
  unsigned rows = 8;
  unsigned cols = 8;

  [[nodiscard]] unsigned core_count() const noexcept { return rows * cols; }
  [[nodiscard]] bool contains(CoreCoord c) const noexcept {
    return c.row < rows && c.col < cols;
  }
  /// Linear index in row-major order.
  [[nodiscard]] unsigned index_of(CoreCoord c) const noexcept {
    assert(contains(c));
    return c.row * cols + c.col;
  }
  [[nodiscard]] CoreCoord coord_of(unsigned index) const noexcept {
    assert(index < core_count());
    return CoreCoord{index / cols, index % cols};
  }
  /// Neighbour in direction `d`, if it exists on the mesh.
  [[nodiscard]] bool neighbour(CoreCoord c, Dir d, CoreCoord& out) const noexcept {
    switch (d) {
      case Dir::North:
        if (c.row == 0) return false;
        out = {c.row - 1, c.col};
        return true;
      case Dir::South:
        if (c.row + 1 >= rows) return false;
        out = {c.row + 1, c.col};
        return true;
      case Dir::West:
        if (c.col == 0) return false;
        out = {c.row, c.col - 1};
        return true;
      case Dir::East:
        if (c.col + 1 >= cols) return false;
        out = {c.row, c.col + 1};
        return true;
    }
    return false;
  }
};

}  // namespace epi::arch
