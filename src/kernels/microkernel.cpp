#include "kernels/microkernel.hpp"

namespace pdsl::kernels {

namespace {

// ---------------------------------------------------------------------------
// The accumulators use GCC's portable vector extension at a fixed 4-float
// width (exactly one xmm at baseline x86-64). Vector-extension types are not
// intrinsics — the compiler lowers them to whatever the target has — but
// unlike relying on the loop auto-vectorizer they pin the code shape. Two
// hard-won lessons are baked into this file:
//   * A pragma-vectorized scalar version of tile4 was outer-loop-vectorized
//     by GCC 12 when the broadcast stride was the constant 1, turning every
//     B-row load into a stride-n shuffle gather — 4x SLOWER than naive.
//   * Target-wider generic vectors (32-byte) are lowered to stack slots, not
//     xmm pairs, when the target lacks AVX: every accumulator update became a
//     load-add-store round trip. 16-byte vectors are first-class registers
//     everywhere, so wider rows are spelled as explicit lo/hi halves.
// Keeping the vector width fixed (rather than ISA-dependent) also keeps the
// lane split of the dot-product kernels — and therefore the exact bits the
// vectorized tier produces — identical between the default and PDSL_NATIVE
// builds; the native build still gains FMA contraction and wider scheduling.
// Per-lane semantics are unchanged from the scalar loops this replaces: lane
// jj of a vector op is one ascending-index accumulation chain.
// ---------------------------------------------------------------------------

typedef float v4 __attribute__((vector_size(16)));

inline v4 load4(const float* p) {
  v4 v;
  __builtin_memcpy(&v, p, sizeof(v4));
  return v;
}

inline void store4(float* p, v4 v) { __builtin_memcpy(p, &v, sizeof(v4)); }

// ---------------------------------------------------------------------------
// Shared axpy-shaped tiles for sgemm and sgemm_transpose_a. Both kernels are
// "broadcast one A element per output row, multiply a contiguous B row
// segment" — they differ only in where the broadcast elements live: sgemm
// walks a row of A (stride 1), transpose_a walks a column (stride k). The
// tile keeps its accumulators register-local for the whole reduction and
// touches C exactly once, which is the entire point of the vectorized tier.
// ---------------------------------------------------------------------------

static_assert(kVecColTile == 8, "tile rows are spelled as two 4-float halves");

/// 4 x kVecColTile register tile. `pa0..pa3` point at the first broadcast
/// element of each output row and advance by `astep` per reduction step; `pb`
/// points at the B row segment and advances by `ldb`. Kept out-of-line: the
/// 8 accumulator halves only stay register-resident when the tile is a leaf
/// function (inlined into the row loop GCC spills them to the stack).
__attribute__((noinline)) void tile4_full(std::size_t depth, const float* pa0,
                                          const float* pa1, const float* pa2,
                                          const float* pa3, std::size_t astep,
                                          const float* pb, std::size_t ldb, float* c0,
                                          float* c1, float* c2, float* c3) {
  v4 a0l = {}, a0h = {}, a1l = {}, a1h = {}, a2l = {}, a2h = {}, a3l = {}, a3h = {};
  for (std::size_t t = 0; t < depth; ++t) {
    const v4 bl = load4(pb);
    const v4 bh = load4(pb + 4);
    const float v0 = *pa0, v1 = *pa1, v2 = *pa2, v3 = *pa3;
    a0l += v0 * bl;
    a0h += v0 * bh;
    a1l += v1 * bl;
    a1h += v1 * bh;
    a2l += v2 * bl;
    a2h += v2 * bh;
    a3l += v3 * bl;
    a3h += v3 * bh;
    pa0 += astep;
    pa1 += astep;
    pa2 += astep;
    pa3 += astep;
    pb += ldb;
  }
  store4(c0, load4(c0) + a0l);
  store4(c0 + 4, load4(c0 + 4) + a0h);
  store4(c1, load4(c1) + a1l);
  store4(c1 + 4, load4(c1 + 4) + a1h);
  store4(c2, load4(c2) + a2l);
  store4(c2 + 4, load4(c2 + 4) + a2h);
  store4(c3, load4(c3) + a3l);
  store4(c3 + 4, load4(c3 + 4) + a3h);
}

/// Ragged-width variant of tile4_full for the last w < kVecColTile columns
/// (scalar; at most kVecColTile-1 columns, off the hot path).
void tile4_tail(std::size_t depth, const float* pa0, const float* pa1, const float* pa2,
                const float* pa3, std::size_t astep, const float* pb, std::size_t ldb,
                float* c0, float* c1, float* c2, float* c3, std::size_t w) {
  float acc0[kVecColTile] = {}, acc1[kVecColTile] = {}, acc2[kVecColTile] = {},
        acc3[kVecColTile] = {};
  for (std::size_t t = 0; t < depth; ++t) {
    const float av0 = *pa0, av1 = *pa1, av2 = *pa2, av3 = *pa3;
    pa0 += astep;
    pa1 += astep;
    pa2 += astep;
    pa3 += astep;
    for (std::size_t jj = 0; jj < w; ++jj) {
      const float bv = pb[jj];
      acc0[jj] += av0 * bv;
      acc1[jj] += av1 * bv;
      acc2[jj] += av2 * bv;
      acc3[jj] += av3 * bv;
    }
    pb += ldb;
  }
  for (std::size_t jj = 0; jj < w; ++jj) {
    c0[jj] += acc0[jj];
    c1[jj] += acc1[jj];
    c2[jj] += acc2[jj];
    c3[jj] += acc3[jj];
  }
}

/// Single-row full-width tile for the ragged last rows.
__attribute__((noinline)) void tile1_full(std::size_t depth, const float* pa,
                                          std::size_t astep, const float* pb,
                                          std::size_t ldb, float* c0) {
  v4 al = {}, ah = {};
  for (std::size_t t = 0; t < depth; ++t) {
    const float av = *pa;
    al += av * load4(pb);
    ah += av * load4(pb + 4);
    pa += astep;
    pb += ldb;
  }
  store4(c0, load4(c0) + al);
  store4(c0 + 4, load4(c0 + 4) + ah);
}

/// Single-row ragged-width tile (bottom-right corner of the output).
void tile1_tail(std::size_t depth, const float* pa, std::size_t astep, const float* pb,
                std::size_t ldb, float* c0, std::size_t w) {
  float acc[kVecColTile] = {};
  for (std::size_t t = 0; t < depth; ++t) {
    const float av = *pa;
    pa += astep;
    for (std::size_t jj = 0; jj < w; ++jj) acc[jj] += av * pb[jj];
    pb += ldb;
  }
  for (std::size_t jj = 0; jj < w; ++jj) c0[jj] += acc[jj];
}

// ---------------------------------------------------------------------------
// Dot-product lanes for sgemm_transpose_b. Lane l owns reduction indices
// l, l + kVecLanes, l + 2*kVecLanes, ... of the stride-1 chunked prefix; the
// ragged tail continues into lanes 0..(tail-1). The assignment and the
// balanced fold below depend only on the reduction length, never on the tile
// position — that is the fixed reduction tree of the fast-math tier's
// determinism contract.
// ---------------------------------------------------------------------------

float lane_fold(v4 lo, v4 hi) {
  static_assert(kVecLanes == 8, "lane_fold is written for 8 lanes");
  const float s01 = lo[0] + lo[1];
  const float s23 = lo[2] + lo[3];
  const float s45 = hi[0] + hi[1];
  const float s67 = hi[2] + hi[3];
  return (s01 + s23) + (s45 + s67);
}

/// Four dot products sharing one A row: out[q] = <arow, bq> over n elements.
__attribute__((noinline)) void dot4(const float* arow, const float* b0, const float* b1,
                                    const float* b2, const float* b3, std::size_t n,
                                    float out[4]) {
  v4 l0l = {}, l0h = {}, l1l = {}, l1h = {}, l2l = {}, l2h = {}, l3l = {}, l3h = {};
  const std::size_t n8 = n - n % kVecLanes;
  for (std::size_t p = 0; p < n8; p += kVecLanes) {
    const v4 al = load4(arow + p);
    const v4 ah = load4(arow + p + 4);
    l0l += al * load4(b0 + p);
    l0h += ah * load4(b0 + p + 4);
    l1l += al * load4(b1 + p);
    l1h += ah * load4(b1 + p + 4);
    l2l += al * load4(b2 + p);
    l2h += ah * load4(b2 + p + 4);
    l3l += al * load4(b3 + p);
    l3h += ah * load4(b3 + p + 4);
  }
  for (std::size_t p = n8; p < n; ++p) {
    const std::size_t l = p - n8;
    const float av = arow[p];
    if (l < 4) {
      l0l[l] += av * b0[p];
      l1l[l] += av * b1[p];
      l2l[l] += av * b2[p];
      l3l[l] += av * b3[p];
    } else {
      l0h[l - 4] += av * b0[p];
      l1h[l - 4] += av * b1[p];
      l2h[l - 4] += av * b2[p];
      l3h[l - 4] += av * b3[p];
    }
  }
  out[0] = lane_fold(l0l, l0h);
  out[1] = lane_fold(l1l, l1h);
  out[2] = lane_fold(l2l, l2h);
  out[3] = lane_fold(l3l, l3h);
}

float dot1(const float* arow, const float* brow, std::size_t n) {
  v4 lo = {}, hi = {};
  const std::size_t n8 = n - n % kVecLanes;
  for (std::size_t p = 0; p < n8; p += kVecLanes) {
    lo += load4(arow + p) * load4(brow + p);
    hi += load4(arow + p + 4) * load4(brow + p + 4);
  }
  for (std::size_t p = n8; p < n; ++p) {
    const std::size_t l = p - n8;
    if (l < 4) {
      lo[l] += arow[p] * brow[p];
    } else {
      hi[l - 4] += arow[p] * brow[p];
    }
  }
  return lane_fold(lo, hi);
}

}  // namespace

void vec_sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
               float* c) {
  std::size_t i = 0;
  for (; i + kVecRowTile <= m; i += kVecRowTile) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    const float* a2 = a + (i + 2) * k;
    const float* a3 = a + (i + 3) * k;
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    std::size_t j0 = 0;
    for (; j0 + kVecColTile <= n; j0 += kVecColTile) {
      tile4_full(k, a0, a1, a2, a3, 1, b + j0, n, c0 + j0, c1 + j0, c2 + j0, c3 + j0);
    }
    if (j0 < n) {
      tile4_tail(k, a0, a1, a2, a3, 1, b + j0, n, c0 + j0, c1 + j0, c2 + j0, c3 + j0,
                 n - j0);
    }
  }
  for (; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j0 = 0;
    for (; j0 + kVecColTile <= n; j0 += kVecColTile) {
      tile1_full(k, arow, 1, b + j0, n, crow + j0);
    }
    if (j0 < n) tile1_tail(k, arow, 1, b + j0, n, crow + j0, n - j0);
  }
}

void vec_sgemm_ta(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                  float* c) {
  std::size_t p = 0;
  for (; p + kVecRowTile <= k; p += kVecRowTile) {
    // Broadcast elements walk column p+r of A: start a[0*k + (p+r)], stride k.
    const float* a0 = a + (p + 0);
    const float* a1 = a + (p + 1);
    const float* a2 = a + (p + 2);
    const float* a3 = a + (p + 3);
    float* c0 = c + (p + 0) * n;
    float* c1 = c + (p + 1) * n;
    float* c2 = c + (p + 2) * n;
    float* c3 = c + (p + 3) * n;
    std::size_t j0 = 0;
    for (; j0 + kVecColTile <= n; j0 += kVecColTile) {
      tile4_full(m, a0, a1, a2, a3, k, b + j0, n, c0 + j0, c1 + j0, c2 + j0, c3 + j0);
    }
    if (j0 < n) {
      tile4_tail(m, a0, a1, a2, a3, k, b + j0, n, c0 + j0, c1 + j0, c2 + j0, c3 + j0,
                 n - j0);
    }
  }
  for (; p < k; ++p) {
    const float* acol = a + p;
    float* crow = c + p * n;
    std::size_t j0 = 0;
    for (; j0 + kVecColTile <= n; j0 += kVecColTile) {
      tile1_full(m, acol, k, b + j0, n, crow + j0);
    }
    if (j0 < n) tile1_tail(m, acol, k, b + j0, n, crow + j0, n - j0);
  }
}

void vec_sgemm_tb(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                  float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    std::size_t j = 0;
    for (; j + 4 <= k; j += 4) {
      float out[4];
      dot4(arow, b + (j + 0) * n, b + (j + 1) * n, b + (j + 2) * n, b + (j + 3) * n, n,
           out);
      if (accumulate) {
        crow[j + 0] += out[0];
        crow[j + 1] += out[1];
        crow[j + 2] += out[2];
        crow[j + 3] += out[3];
      } else {
        crow[j + 0] = out[0];
        crow[j + 1] = out[1];
        crow[j + 2] = out[2];
        crow[j + 3] = out[3];
      }
    }
    for (; j < k; ++j) {
      const float v = dot1(arow, b + j * n, n);
      if (accumulate) {
        crow[j] += v;
      } else {
        crow[j] = v;
      }
    }
  }
}

}  // namespace pdsl::kernels
