#pragma once
// S-KER single-precision GEMM family on raw row-major buffers. Three layouts
// cover every matmul in the codebase (Linear forward/backward, the im2col
// convolution, attack models):
//
//   sgemm              C(m,n)  = A(m,k)   * B(k,n)
//   sgemm_transpose_a  C(k,n)  = A(m,k)^T * B(m,n)
//   sgemm_transpose_b  C(m,k)  = A(m,n)   * B(k,n)^T   (double accumulators)
//
// With `accumulate` the product is added to C instead of overwriting it.
//
// Each entry point dispatches on kernels::backend() (backend.hpp): the naive
// path is the original triple loop (zero-skip shortcuts removed — they
// silently dropped NaN/Inf propagation from the other operand); the blocked
// path keeps register tiles of C for the whole reduction, one chain per SIMD
// lane, at the widest vector width the host supports (backend.hpp,
// kernels::isa()):
//
//   - sgemm and sgemm_transpose_a: one 4-row float tile that differs only in
//     A's strides;
//   - sgemm_transpose_b: double chains. The lanes run over the narrower of m
//     and k (when m < k it computes C^T = B * A^T and stores C transposed);
//     that side is packed once into p-outer panels of doubles, and the other
//     is widened to double once per 12-row block, in a bounded per-thread
//     scratch (at most 128 KB of packed lanes plus the 12 widened rows). The
//     AVX-512F clone fuses its multiply-adds, which rounds as
//     multiply-then-add does because a float x float product is exact in
//     double (blocked_clone.inc).
//
// Naive and blocked accumulate every output element in the same reduction
// order, so their results are bit-identical at every width.
//
// Every call runs single-threaded on the calling thread; parallelism lives
// one level up, where runtime::parallel_for runs agents concurrently. The
// kernels are safe to call from concurrent agents: the only per-call scratch
// (sgemm_transpose_b's packed panels and widened rows) is thread_local.

#include <cstddef>

namespace pdsl::kernels {

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate = false);

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate = false);

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate = false);

}  // namespace pdsl::kernels
