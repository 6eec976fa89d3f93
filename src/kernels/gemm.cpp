#include "kernels/gemm.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/microkernel.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::kernels {

namespace {

// Output rows per register tile: small enough that the tile's accumulator
// rows stay in registers / L1 across the reduction, large enough to amortize
// each load of the shared operand row four ways.
constexpr std::size_t kRowTile = 4;
// Column block (floats) for the axpy-style kernels: one C-row segment plus
// one B-row segment per tile row stays L1-resident while the reduction runs.
constexpr std::size_t kColBlock = 256;

/// Run body(lo, hi) over a static partition of [0, rows). Sequential when the
/// configured width is 1, when there is nothing to split, or when the caller
/// already sits inside a parallel_for body (nested parallelism is rejected by
/// the runtime). The partition is a pure function of (rows, width) and every
/// output row is produced by exactly one chunk, so results are bit-identical
/// at every width.
void for_row_range(std::size_t rows, const std::function<void(std::size_t, std::size_t)>& body) {
  if (rows == 0) return;
  const std::size_t width = runtime::global_threads();
  const std::size_t chunks = std::min(width, rows);
  if (chunks <= 1 || runtime::in_parallel_region()) {
    body(0, rows);
    return;
  }
  const std::size_t grain = (rows + chunks - 1) / chunks;
  runtime::parallel_for(0, chunks, 1, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(rows, lo + grain);
    if (lo < hi) body(lo, hi);
  });
}

// ---------------------------------------------------------------------------
// C(m,n) = A(m,k) * B(k,n)
// ---------------------------------------------------------------------------

void naive_sgemm_rows(std::size_t i_begin, std::size_t i_end, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void blocked_sgemm_rows(std::size_t i_begin, std::size_t i_end, std::size_t k, std::size_t n,
                        const float* a, const float* b, float* c) {
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t j1 = std::min(n, j0 + kColBlock);
    std::size_t i = i_begin;
    for (; i + kRowTile <= i_end; i += kRowTile) {
      const float* __restrict__ a0 = a + (i + 0) * k;
      const float* __restrict__ a1 = a + (i + 1) * k;
      const float* __restrict__ a2 = a + (i + 2) * k;
      const float* __restrict__ a3 = a + (i + 3) * k;
      float* __restrict__ c0 = c + (i + 0) * n;
      float* __restrict__ c1 = c + (i + 1) * n;
      float* __restrict__ c2 = c + (i + 2) * n;
      float* __restrict__ c3 = c + (i + 3) * n;
      for (std::size_t p = 0; p < k; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float* __restrict__ brow = b + p * n;
        for (std::size_t j = j0; j < j1; ++j) {
          const float bv = brow[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; i < i_end; ++i) {
      const float* __restrict__ arow = a + i * k;
      float* __restrict__ crow = c + i * n;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* __restrict__ brow = b + p * n;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C(k,n) = A(m,k)^T * B(m,n) — output row p of C gathers column p of A.
// ---------------------------------------------------------------------------

void naive_sgemm_ta_rows(std::size_t p_begin, std::size_t p_end, std::size_t m, std::size_t k,
                         std::size_t n, const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t p = p_begin; p < p_end; ++p) {
      const float av = arow[p];
      float* crow = c + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void blocked_sgemm_ta_rows(std::size_t p_begin, std::size_t p_end, std::size_t m, std::size_t k,
                           std::size_t n, const float* a, const float* b, float* c) {
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t j1 = std::min(n, j0 + kColBlock);
    std::size_t p = p_begin;
    for (; p + kRowTile <= p_end; p += kRowTile) {
      float* __restrict__ c0 = c + (p + 0) * n;
      float* __restrict__ c1 = c + (p + 1) * n;
      float* __restrict__ c2 = c + (p + 2) * n;
      float* __restrict__ c3 = c + (p + 3) * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float* acol = a + i * k + p;
        const float av0 = acol[0], av1 = acol[1], av2 = acol[2], av3 = acol[3];
        const float* __restrict__ brow = b + i * n;
        for (std::size_t j = j0; j < j1; ++j) {
          const float bv = brow[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; p < p_end; ++p) {
      float* __restrict__ crow = c + p * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float av = a[i * k + p];
        const float* __restrict__ brow = b + i * n;
        for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C(m,k) = A(m,n) * B(k,n)^T — independent dot products, double accumulators
// (matches the original matmul_transpose_b numerics exactly).
// ---------------------------------------------------------------------------

void naive_sgemm_tb_rows(std::size_t i_begin, std::size_t i_end, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * n;
    for (std::size_t j = 0; j < k; ++j) {
      const float* brow = b + j * n;
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      if (accumulate) {
        c[i * k + j] += static_cast<float>(acc);
      } else {
        c[i * k + j] = static_cast<float>(acc);
      }
    }
  }
}

// The blocked kernel packs kTbPanel rows of B into a [p][lane] panel of
// doubles and sweeps p once per register tile of kTbRowTile output rows. Each
// SIMD lane carries one output element's own chain, acc += double(a)*double(b)
// in ascending p from +0.0 — the same additions in the same order as the
// naive loop. The float x float product is exact in double (24+24 significand
// bits < 53, and the exponent range cannot overflow or underflow), so
// multiply-then-add and a fused multiply-add round identically: every element
// matches the naive path bit for bit whatever the compiler contracts.
constexpr std::size_t kTbPanel = 8;
constexpr std::size_t kTbRowTile = 3;

typedef double d2 __attribute__((vector_size(16)));

inline d2 load_d2(const double* p) {
  d2 v;
  __builtin_memcpy(&v, p, sizeof(d2));
  return v;
}

/// Transposes B rows [j0, j0 + lanes) into panel[p * width + l], widened to
/// double. Lanes in [lanes, width) are zero padding: their chains run but are
/// never written back.
void pack_tb_panel(const float* b, std::size_t n, std::size_t j0, std::size_t lanes,
                   std::size_t width, double* panel) {
  for (std::size_t l = 0; l < width; ++l) {
    double* dst = panel + l;
    if (l < lanes) {
      const float* brow = b + (j0 + l) * n;
      for (std::size_t p = 0; p < n; ++p) dst[p * width] = brow[p];
    } else {
      for (std::size_t p = 0; p < n; ++p) dst[p * width] = 0.0;
    }
  }
}

/// R x (2V) register tile: output rows a[0..R) against the 2V-lane panel.
/// Kept out of line so the R*V accumulators stay register-resident (see the
/// notes at the top of microkernel.cpp).
template <std::size_t R, std::size_t V>
__attribute__((noinline)) void tb_tile(std::size_t n, const float* a, const double* panel,
                                       std::size_t lanes, float* c, std::size_t ldc,
                                       bool accumulate) {
  d2 acc[R][V] = {};
  for (std::size_t p = 0; p < n; ++p) {
    const double* bp = panel + p * (2 * V);
    for (std::size_t r = 0; r < R; ++r) {
      const double av = a[r * n + p];
      const d2 ab = {av, av};
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += ab * load_d2(bp + 2 * v);
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    for (std::size_t l = 0; l < lanes; ++l) {
      const float out = static_cast<float>(acc[r][l / 2][l % 2]);
      crow[l] = accumulate ? crow[l] + out : out;
    }
  }
}

template <std::size_t V>
void tb_panel_rows(std::size_t i_begin, std::size_t i_end, std::size_t n, std::size_t k,
                   std::size_t j0, std::size_t lanes, const float* a, const double* panel,
                   float* c, bool accumulate) {
  std::size_t i = i_begin;
  for (; i + kTbRowTile <= i_end; i += kTbRowTile) {
    tb_tile<kTbRowTile, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
  }
  static_assert(kTbRowTile == 3, "the 1- and 2-row remainders are spelled out");
  if (i_end - i == 2) tb_tile<2, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
  if (i_end - i == 1) tb_tile<1, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
}

void blocked_sgemm_tb_rows(std::size_t i_begin, std::size_t i_end, std::size_t n, std::size_t k,
                           const float* a, const float* b, float* c, bool accumulate) {
  static_assert(kTbPanel == 8, "one panel width per lane-pair count 1..4 below");
  constexpr decltype(&tb_panel_rows<1>) kPanelRows[] = {tb_panel_rows<1>, tb_panel_rows<2>,
                                                         tb_panel_rows<3>, tb_panel_rows<4>};
  // Per-thread, grow-only: concurrent for_row_range chunks each pack their
  // own copy, and steady-state calls allocate nothing.
  thread_local std::vector<double> panel;
  if (panel.size() < n * kTbPanel) panel.resize(n * kTbPanel);
  for (std::size_t j0 = 0; j0 < k; j0 += kTbPanel) {
    const std::size_t lanes = std::min(kTbPanel, k - j0);
    const std::size_t pairs = (lanes + 1) / 2;  // a ragged panel narrows to whole lane pairs
    pack_tb_panel(b, n, j0, lanes, 2 * pairs, panel.data());
    kPanelRows[pairs - 1](i_begin, i_end, n, k, j0, lanes, a, panel.data(), c, accumulate);
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), m, k, n);
  for_row_range(m, [&](std::size_t lo, std::size_t hi) {
    if (!accumulate) std::fill(c + lo * n, c + hi * n, 0.0f);
    if (be == Backend::kVectorized) {
      vec_sgemm_rows(lo, hi, k, n, a, b, c);
    } else if (be == Backend::kBlocked) {
      blocked_sgemm_rows(lo, hi, k, n, a, b, c);
    } else {
      naive_sgemm_rows(lo, hi, k, n, a, b, c);
    }
  });
}

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), k, m, n);
  for_row_range(k, [&](std::size_t lo, std::size_t hi) {
    if (!accumulate) std::fill(c + lo * n, c + hi * n, 0.0f);
    if (be == Backend::kVectorized) {
      vec_sgemm_ta_rows(lo, hi, m, k, n, a, b, c);
    } else if (be == Backend::kBlocked) {
      blocked_sgemm_ta_rows(lo, hi, m, k, n, a, b, c);
    } else {
      naive_sgemm_ta_rows(lo, hi, m, k, n, a, b, c);
    }
  });
}

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), m, n, k);
  for_row_range(m, [&](std::size_t lo, std::size_t hi) {
    if (be == Backend::kVectorized) {
      vec_sgemm_tb_rows(lo, hi, n, k, a, b, c, accumulate);
    } else if (be == Backend::kBlocked) {
      blocked_sgemm_tb_rows(lo, hi, n, k, a, b, c, accumulate);
    } else {
      naive_sgemm_tb_rows(lo, hi, n, k, a, b, c, accumulate);
    }
  });
}

}  // namespace pdsl::kernels
