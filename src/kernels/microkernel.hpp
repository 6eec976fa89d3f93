#pragma once
// S-VEC register-tiled vectorized GEMM microkernels — the fast-math tier.
//
// The blocked backend (gemm.cpp) is deliberately memory-shaped like the naive
// loops so it stays bit-identical to the reference: every output element is a
// single ascending-index accumulation chain that round-trips through the C
// row on each step of the reduction. That contract caps it at ~1.0x on
// flop-bound square GEMMs — the inner axpy pays two loads and a store of C
// per FMA. The vectorized tier drops the bit-identity contract (banded
// equivalence instead, see DESIGN.md "S-KER" band policy) and keeps the whole
// accumulator tile in registers across the reduction:
//
//   * sgemm / sgemm_transpose_a: a kVecRowTile x kVecColTile register tile of
//     C accumulates over the full reduction with zero loads/stores of C in
//     the inner loop; per reduction step the tile costs kVecRowTile broadcast
//     loads + kVecColTile/lane vector loads for kVecRowTile*kVecColTile FMAs.
//     Each element is still one ascending-index chain, but the tile is
//     accumulated locally and added to C once at the end, and the TU is
//     compiled with -ffp-contract=fast, so results agree with the reference
//     only to rounding (FMA contraction).
//   * sgemm_transpose_b: the dot-product layout. The reference accumulates in
//     scalar double; here each dot product runs in kVecLanes float partial
//     sums (lane l takes elements l, l+kVecLanes, l+2*kVecLanes, ... of the
//     reduction) folded by a fixed balanced reduction tree. The lane split
//     and the tree are pure functions of the reduction length — never of the
//     tile position or neighbours — so results are deterministic, just not
//     equal to the double-accumulated reference.
//
// vec_sgemm and vec_sgemm_ta add into C unconditionally: the caller
// (gemm.cpp) zero-fills C first when not accumulating.
//
// These kernels are plain C++ on GCC's 16-byte vector extension (no
// intrinsics): the tile sizes are chosen so -O3 keeps the accumulators in
// vector registers at baseline x86-64. The width is fixed at 4 floats in
// every build, so the lane split and the tier's bits do not depend on the
// ISA (microkernel.cpp); -DPDSL_NATIVE=ON only re-encodes them for the host
// and lets the compiler contract to FMA. Unlike the blocked tiles, these
// have no ISA-dispatched clones.

#include <cstddef>

namespace pdsl::kernels {

/// Output rows per register tile (sgemm / sgemm_transpose_a).
inline constexpr std::size_t kVecRowTile = 4;
/// Output columns (floats) per register tile: the accumulator tile is
/// kVecRowTile x kVecColTile floats = 8 xmm at baseline SSE2, leaving half
/// the register file for the broadcast and B-row operands (a 4x16 tile
/// measured ~2x slower — it owns all 16 xmm and every operand load spills).
inline constexpr std::size_t kVecColTile = 8;
/// Fixed partial-sum lanes for the dot-product kernel (sgemm_transpose_b).
inline constexpr std::size_t kVecLanes = 8;

/// C(m,n) += A(m,k) * B(k,n).
void vec_sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
               float* c);

/// C(k,n) += A(m,k)^T * B(m,n).
void vec_sgemm_ta(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
                  float* c);

/// C(m,k) = (or +=) A(m,n) * B(k,n)^T.
void vec_sgemm_tb(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                  float* c, bool accumulate);

}  // namespace pdsl::kernels
