#include "kernels/gemm.hpp"

#include <algorithm>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/microkernel.hpp"

namespace pdsl::kernels {

namespace {

// ---------------------------------------------------------------------------
// C(m,n) = A(m,k) * B(k,n)        and        C(k,n) = A(m,k)^T * B(m,n)
//
// Both are the same axpy-shaped product: output row r, reduction step t adds
// A(r, t) * B row t to C row r. They differ only in where A(r, t) lives —
// a[r * k + t] for sgemm, a[t * k + r] for the transpose — so one register
// tile, parameterized by A's two strides, serves both.
// ---------------------------------------------------------------------------

void naive_sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                 float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void naive_sgemm_ta(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                    float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      float* crow = c + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// The blocked kernels sweep C in panels of kAxpyRows output rows and, within
// a panel, in tiles of kAxpyV float4 vectors (12 columns). A tile loads its
// C block once, keeps it in registers for the whole reduction and stores it
// once. Each lane is one C element's own chain c += a * b, in ascending
// reduction index, starting from C's value: the additions of the naive loops
// in the same order, so the two backends agree bit for bit. Nothing here may
// be contracted to an FMA (this file builds with -ffp-contract=off).
constexpr std::size_t kAxpyRows = 4;
constexpr std::size_t kAxpyV = 3;

typedef float f4 __attribute__((vector_size(16)));

inline f4 load_f4(const float* p) {
  f4 v;
  __builtin_memcpy(&v, p, sizeof(f4));
  return v;
}

inline void store_f4(float* p, f4 v) { __builtin_memcpy(p, &v, sizeof(f4)); }

/// R x (4V) register tile over `depth` reduction steps: row r, step t reads
/// a[r * a_row + t * a_step] and B row t at b + t * ld; C rows are ld apart.
/// Kept out of line so the R*V accumulators stay register-resident (see
/// microkernel.cpp).
template <std::size_t R, std::size_t V>
__attribute__((noinline)) void axpy_tile(std::size_t depth, const float* a, std::size_t a_row,
                                         std::size_t a_step, const float* b, float* c,
                                         std::size_t ld) {
  f4 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = load_f4(c + r * ld + 4 * v);
  }
  for (std::size_t t = 0; t < depth; ++t) {
    f4 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = load_f4(b + 4 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row];
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
    a += a_step;
    b += ld;
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) store_f4(c + r * ld + 4 * v, acc[r][v]);
  }
}

/// One panel of R rows: full strips of 4 * kAxpyV columns, one narrower
/// strip for the next whole vectors, then the last n % 4 columns one chain
/// at a time.
template <std::size_t R>
void axpy_rows(std::size_t depth, std::size_t n, const float* a, std::size_t a_row,
               std::size_t a_step, const float* b, float* c) {
  static_assert(kAxpyV == 3, "the 1- and 2-vector strips are spelled out");
  std::size_t j = 0;
  for (; j + 4 * kAxpyV <= n; j += 4 * kAxpyV) {
    axpy_tile<R, kAxpyV>(depth, a, a_row, a_step, b + j, c + j, n);
  }
  if (n - j >= 8) {
    axpy_tile<R, 2>(depth, a, a_row, a_step, b + j, c + j, n);
    j += 8;
  } else if (n - j >= 4) {
    axpy_tile<R, 1>(depth, a, a_row, a_step, b + j, c + j, n);
    j += 4;
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      float acc = c[r * n + j];
      for (std::size_t t = 0; t < depth; ++t) acc += a[r * a_row + t * a_step] * b[t * n + j];
      c[r * n + j] = acc;
    }
  }
}

/// C(rows, n) += A * B(depth, n), where output row r at step t reads
/// a[r * a_row + t * a_step].
void blocked_axpy(std::size_t rows, std::size_t depth, std::size_t n, const float* a,
                  std::size_t a_row, std::size_t a_step, const float* b, float* c) {
  std::size_t i = 0;
  for (; i + kAxpyRows <= rows; i += kAxpyRows) {
    axpy_rows<kAxpyRows>(depth, n, a + i * a_row, a_row, a_step, b, c + i * n);
  }
  static_assert(kAxpyRows == 4, "the 1- to 3-row remainders are spelled out");
  const float* ai = a + i * a_row;
  float* ci = c + i * n;
  if (rows - i == 3) axpy_rows<3>(depth, n, ai, a_row, a_step, b, ci);
  if (rows - i == 2) axpy_rows<2>(depth, n, ai, a_row, a_step, b, ci);
  if (rows - i == 1) axpy_rows<1>(depth, n, ai, a_row, a_step, b, ci);
}

void blocked_sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                   float* c) {
  blocked_axpy(m, k, n, a, /*a_row=*/k, /*a_step=*/1, b, c);
}

void blocked_sgemm_ta(std::size_t m, std::size_t k, std::size_t n, const float* a,
                      const float* b, float* c) {
  blocked_axpy(k, m, n, a, /*a_row=*/1, /*a_step=*/k, b, c);
}

// ---------------------------------------------------------------------------
// C(m,k) = A(m,n) * B(k,n)^T — independent dot products, double accumulators
// (matches the original matmul_transpose_b numerics exactly).
// ---------------------------------------------------------------------------

void naive_sgemm_tb(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                    float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
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
void tb_panel_rows(std::size_t m, std::size_t n, std::size_t k, std::size_t j0,
                   std::size_t lanes, const float* a, const double* panel, float* c,
                   bool accumulate) {
  std::size_t i = 0;
  for (; i + kTbRowTile <= m; i += kTbRowTile) {
    tb_tile<kTbRowTile, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
  }
  static_assert(kTbRowTile == 3, "the 1- and 2-row remainders are spelled out");
  if (m - i == 2) tb_tile<2, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
  if (m - i == 1) tb_tile<1, V>(n, a + i * n, panel, lanes, c + i * k + j0, k, accumulate);
}

void blocked_sgemm_tb(std::size_t m, std::size_t n, std::size_t k, const float* a,
                      const float* b, float* c, bool accumulate) {
  static_assert(kTbPanel == 8, "one panel width per lane-pair count 1..4 below");
  constexpr decltype(&tb_panel_rows<1>) kPanelRows[] = {tb_panel_rows<1>, tb_panel_rows<2>,
                                                         tb_panel_rows<3>, tb_panel_rows<4>};
  // Per-thread, grow-only: agents calling the kernels concurrently from a
  // parallel_for body each pack their own copy, and steady-state calls
  // allocate nothing.
  thread_local std::vector<double> panel;
  if (panel.size() < n * kTbPanel) panel.resize(n * kTbPanel);
  for (std::size_t j0 = 0; j0 < k; j0 += kTbPanel) {
    const std::size_t lanes = std::min(kTbPanel, k - j0);
    const std::size_t pairs = (lanes + 1) / 2;  // a ragged panel narrows to whole lane pairs
    pack_tb_panel(b, n, j0, lanes, 2 * pairs, panel.data());
    kPanelRows[pairs - 1](m, n, k, j0, lanes, a, panel.data(), c, accumulate);
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), m, k, n);
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (be == Backend::kVectorized) {
    vec_sgemm(m, k, n, a, b, c);
  } else if (be == Backend::kBlocked) {
    blocked_sgemm(m, k, n, a, b, c);
  } else {
    naive_sgemm(m, k, n, a, b, c);
  }
}

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), k, m, n);
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  if (be == Backend::kVectorized) {
    vec_sgemm_ta(m, k, n, a, b, c);
  } else if (be == Backend::kBlocked) {
    blocked_sgemm_ta(m, k, n, a, b, c);
  } else {
    naive_sgemm_ta(m, k, n, a, b, c);
  }
}

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  const Backend be = resolve_backend(backend(), m, n, k);
  if (be == Backend::kVectorized) {
    vec_sgemm_tb(m, n, k, a, b, c, accumulate);
  } else if (be == Backend::kBlocked) {
    blocked_sgemm_tb(m, n, k, a, b, c, accumulate);
  } else {
    naive_sgemm_tb(m, n, k, a, b, c, accumulate);
  }
}

}  // namespace pdsl::kernels
