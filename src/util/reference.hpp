#pragma once
// Golden reference implementations used to verify every device kernel:
// a naive 5-point (and general 3x3-footprint) stencil and a naive matmul.
// These run on the host in double precision where it matters for comparison
// tolerances, with no simulator involvement.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace epi::util {

/// Coefficients of the paper's 5-point star stencil (section VI):
/// Tnew[i][j] = w1*T[i-1][j] + w2*T[i][j] + w3*T[i+1][j]
///            + w4*T[i][j+1] + w5*T[i][j-1]   (top, centre, bottom, right, left)
struct StencilWeights {
  float top = 0.1f;
  float centre = 0.5f;
  float bottom = 0.1f;
  float right = 0.15f;
  float left = 0.15f;
};

/// One Jacobi-style update of the interior of a (rows x cols) grid stored
/// row-major, halo of one cell on each side included in the dimensions.
/// Boundary cells are left untouched.
void stencil5_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, const StencilWeights& w);

/// `iters` repeated updates, ping-ponging internally; result in `grid`.
void stencil5_reference_iterate(std::span<float> grid, std::size_t rows, std::size_t cols,
                                const StencilWeights& w, unsigned iters);

/// X-shaped 5-point stencil (paper section VI "Further Observations"):
/// the four diagonal neighbours plus the centre.
void stencilX_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, const StencilWeights& w);

/// Full 9-point stencil over the 3x3 neighbourhood; `w9` row-major.
void stencil9_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, std::span<const float, 9> w9);

/// C = A * B with A (m x n), B (n x k), C (m x k), all row-major.
void matmul_reference(std::span<const float> a, std::span<const float> b, std::span<float> c,
                      std::size_t m, std::size_t n, std::size_t k);

/// C += A * B with A (m x n), B (n x k), C (m x k), all row-major and not
/// overlapping. The (r, p, j) loop streams rows of B and C; every C element
/// still sums its products in p order, so the result is bit-identical to the
/// (r, j, p) dot products (epi_core builds with -ffp-contract=off: no FMA
/// contraction). The one block multiply-accumulate: the matmul kernels, the
/// shmem Cannon kernel and its verifier all call it.
void mac_block(std::span<const float> a, std::span<const float> b, std::span<float> c,
               std::size_t m, std::size_t n, std::size_t k);

/// Max absolute elementwise difference.
[[nodiscard]] float max_abs_diff(std::span<const float> x, std::span<const float> y);

/// Fill with deterministic pseudo-random values in [-1, 1).
void fill_random(std::span<float> x, std::uint64_t seed);

}  // namespace epi::util
