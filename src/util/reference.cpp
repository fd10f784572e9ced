#include "util/reference.hpp"

#include <cmath>
#include <cstdint>

#include "sim/random.hpp"

namespace epi::util {

void stencil5_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, const StencilWeights& w) {
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      out[i * cols + j] = w.top * in[(i - 1) * cols + j] + w.centre * in[i * cols + j] +
                          w.bottom * in[(i + 1) * cols + j] + w.right * in[i * cols + j + 1] +
                          w.left * in[i * cols + j - 1];
    }
  }
}

void stencil5_reference_iterate(std::span<float> grid, std::size_t rows, std::size_t cols,
                                const StencilWeights& w, unsigned iters) {
  std::vector<float> tmp(grid.begin(), grid.end());
  std::span<float> a = grid;
  std::span<float> b = tmp;
  for (unsigned it = 0; it < iters; ++it) {
    // Copy boundary (untouched by the update) then swap roles.
    for (std::size_t j = 0; j < cols; ++j) {
      b[j] = a[j];
      b[(rows - 1) * cols + j] = a[(rows - 1) * cols + j];
    }
    for (std::size_t i = 0; i < rows; ++i) {
      b[i * cols] = a[i * cols];
      b[i * cols + cols - 1] = a[i * cols + cols - 1];
    }
    stencil5_reference(a, b, rows, cols, w);
    std::swap(a, b);
  }
  if (a.data() != grid.data()) {
    std::copy(a.begin(), a.end(), grid.begin());
  }
}

void stencilX_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, const StencilWeights& w) {
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      out[i * cols + j] = w.top * in[(i - 1) * cols + j - 1] + w.centre * in[i * cols + j] +
                          w.bottom * in[(i + 1) * cols + j + 1] +
                          w.right * in[(i - 1) * cols + j + 1] +
                          w.left * in[(i + 1) * cols + j - 1];
    }
  }
}

void stencil9_reference(std::span<const float> in, std::span<float> out, std::size_t rows,
                        std::size_t cols, std::span<const float, 9> w9) {
  for (std::size_t i = 1; i + 1 < rows; ++i) {
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      float acc = 0.0f;
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          acc += w9[static_cast<std::size_t>((di + 1) * 3 + (dj + 1))] *
                 in[(i + static_cast<std::size_t>(di)) * cols + j + static_cast<std::size_t>(dj)];
        }
      }
      out[i * cols + j] = acc;
    }
  }
}

void matmul_reference(std::span<const float> a, std::span<const float> b, std::span<float> c,
                      std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < n; ++p) {
        acc += a[i * n + p] * b[p * k + j];
      }
      c[i * k + j] = acc;
    }
  }
}

// Cache-line aligned: this loop is the off-chip matmul's hot spot, and its
// speed moved by several percent with where unrelated code changes left it.
[[gnu::aligned(64)]] void mac_block(std::span<const float> a, std::span<const float> b,
                                    std::span<float> c, std::size_t m, std::size_t n,
                                    std::size_t k) {
  for (std::size_t r = 0; r < m; ++r) {
    float* __restrict crow = c.data() + r * k;
    for (std::size_t p = 0; p < n; ++p) {
      const float x = a[r * n + p];
      const float* __restrict brow = b.data() + p * k;
      for (std::size_t j = 0; j < k; ++j) crow[j] += x * brow[j];
    }
  }
}

float max_abs_diff(std::span<const float> x, std::span<const float> y) {
  float m = 0.0f;
  const std::size_t n = x.size() < y.size() ? x.size() : y.size();
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(x[i] - y[i]));
  }
  return m;
}

void fill_random(std::span<float> x, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (auto& v : x) v = rng.next_float(-1.0f, 1.0f);
}

}  // namespace epi::util
