#include "kernels/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/cnn.hpp"

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

// ---------------------------------------------------------------------------
// The blocked kernels (blocked_clone.inc: the GEMM tiles; cnn_clone.inc: the
// 2x2 max-pool and the direct convolution of cnn.hpp), compiled once per
// x86-64 level in a namespace of their own: baseline, AVX2 and AVX-512F, at
// 4, 8 and 16 floats per vector. Only the isa_avx2 and isa_avx512 clones hold VEX or
// EVEX code (tests/check_isa_portability.py checks the binary), and a call
// enters one only after host_isa() has found the level on this CPU. Neither
// clone enables the fma feature, and -ffp-contract=off keeps the compiler
// from fusing on its own; the AVX-512F clone's sgemm_transpose_b tile calls
// AVX-512F's own fused multiply-add through PDSL_TB_FMA, where the product
// is exact and fusing cannot move a bit (blocked_clone.inc).
// ---------------------------------------------------------------------------

#define PDSL_CLONE
namespace isa_baseline {
constexpr std::size_t kFloats = 4;
#include "kernels/blocked_clone.inc"
#include "kernels/cnn_clone.inc"
}  // namespace isa_baseline
#undef PDSL_CLONE

#if defined(__x86_64__) || defined(__i386__)
#define PDSL_CLONE __attribute__((target("avx2")))
namespace isa_avx2 {
constexpr std::size_t kFloats = 8;
#include "kernels/blocked_clone.inc"
#include "kernels/cnn_clone.inc"
}  // namespace isa_avx2
#undef PDSL_CLONE

#define PDSL_CLONE __attribute__((target("avx512f")))
// _mm512_fmadd_pd(_mm512_set1_pd(x), y, acc) without the header: 8 doubles,
// all lanes, the current rounding mode.
#define PDSL_TB_FMA(x, y, acc) \
  __builtin_ia32_vfmaddpd512_mask(decltype(y){x, x, x, x, x, x, x, x}, y, acc, -1, 4)
namespace isa_avx512 {
constexpr std::size_t kFloats = 16;
#include "kernels/blocked_clone.inc"
#include "kernels/cnn_clone.inc"
}  // namespace isa_avx512
#undef PDSL_TB_FMA
#undef PDSL_CLONE
#else
namespace isa_avx2 = isa_baseline;
namespace isa_avx512 = isa_baseline;
#endif

/// One clone's entry points.
struct BlockedClone {
  decltype(&isa_baseline::blocked_axpy) axpy;
  decltype(&isa_baseline::blocked_tb) tb;
  decltype(&isa_baseline::tb_scratch) tb_scratch;
  decltype(&isa_baseline::maxpool2x2) maxpool;
  decltype(&isa_baseline::relu_maxpool2x2) relu_maxpool;
  decltype(&isa_baseline::conv_forward) conv;
  decltype(&isa_baseline::conv_scratch) conv_scratch;
};

/// The clone of the dispatched level, indexed by Isa.
const BlockedClone& blocked_clone() noexcept {
  static constexpr BlockedClone kClones[] = {
      {isa_baseline::blocked_axpy, isa_baseline::blocked_tb, isa_baseline::tb_scratch,
       isa_baseline::maxpool2x2, isa_baseline::relu_maxpool2x2, isa_baseline::conv_forward,
       isa_baseline::conv_scratch},
      {isa_avx2::blocked_axpy, isa_avx2::blocked_tb, isa_avx2::tb_scratch, isa_avx2::maxpool2x2,
       isa_avx2::relu_maxpool2x2, isa_avx2::conv_forward, isa_avx2::conv_scratch},
      {isa_avx512::blocked_axpy, isa_avx512::blocked_tb, isa_avx512::tb_scratch,
       isa_avx512::maxpool2x2, isa_avx512::relu_maxpool2x2, isa_avx512::conv_forward,
       isa_avx512::conv_scratch},
  };
  return kClones[static_cast<std::size_t>(isa())];
}

void blocked_sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                   float* c) {
  blocked_clone().axpy(m, k, n, a, /*a_row=*/k, /*a_step=*/1, b, c);
}

void blocked_sgemm_ta(std::size_t m, std::size_t k, std::size_t n, const float* a,
                      const float* b, float* c) {
  blocked_clone().axpy(k, m, n, a, /*a_row=*/1, /*a_step=*/k, b, c);
}

void blocked_sgemm_tb(std::size_t m, std::size_t n, std::size_t k, const float* a,
                      const float* b, float* c, bool accumulate) {
  const BlockedClone& clone = blocked_clone();
  // Per-thread, grow-only, bounded (blocked_clone.inc's kTbScratch), and
  // allocated here in baseline code: agents calling the kernels concurrently
  // from a parallel_for body each pack their own copy, and steady-state
  // calls allocate nothing.
  thread_local std::vector<double> scratch;
  const std::size_t need = clone.tb_scratch(m, n, k);
  if (scratch.size() < need) scratch.resize(need);
  clone.tb(m, n, k, a, b, c, accumulate, scratch.data());
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  if (backend() == Backend::kNaive) {
    naive_sgemm(m, k, n, a, b, c);
  } else {
    blocked_sgemm(m, k, n, a, b, c);
  }
}

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate) {
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  if (backend() == Backend::kNaive) {
    naive_sgemm_ta(m, k, n, a, b, c);
  } else {
    blocked_sgemm_ta(m, k, n, a, b, c);
  }
}

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  if (backend() == Backend::kNaive) {
    naive_sgemm_tb(m, n, k, a, b, c, accumulate);
  } else {
    blocked_sgemm_tb(m, n, k, a, b, c, accumulate);
  }
}

// The clones spell the argmax type `unsigned`, having no <cstdint>.
static_assert(std::is_same_v<unsigned, std::uint32_t>);

void maxpool2x2(const float* x, std::size_t planes, std::size_t ih, std::size_t iw, float* y,
                std::uint32_t* arg) {
  blocked_clone().maxpool(x, planes, ih, iw, y, arg);
}

void relu_maxpool2x2(const float* x, std::size_t planes, std::size_t ih, std::size_t iw,
                     float* y) {
  blocked_clone().relu_maxpool(x, planes, ih, iw, y);
}

void conv2d_forward(const float* x, std::size_t n, std::size_t in_ch, std::size_t ih,
                    std::size_t iw, const float* w, const float* bias, std::size_t out_ch,
                    std::size_t k, std::size_t pad, float* y) {
  const BlockedClone& clone = blocked_clone();
  // Per-thread and grow-only, like sgemm_transpose_b's scratch.
  thread_local std::vector<float> scratch;
  const std::size_t need = clone.conv_scratch(in_ch, ih, iw, out_ch, k, pad);
  if (scratch.size() < need) scratch.resize(need);
  clone.conv(x, n, in_ch, ih, iw, w, bias, out_ch, k, pad, y, scratch.data());
}

}  // namespace pdsl::kernels
