#pragma once
// S-KER backend registry + S-VEC shape dispatch. The hot math (GEMM,
// convolution) exists in three implementations plus an automatic chooser:
//
//   - naive:      the original loops, kept as the bit-for-bit reference path
//                 for differential testing;
//   - blocked:    cache-blocked kernels with the SAME per-element accumulation
//                 order as naive — bit-identical, the default and the
//                 reference for the golden fixtures;
//   - vectorized: the S-VEC register-tiled microkernel (microkernel.hpp).
//                 Deterministic (fixed lane split + fixed reduction tree,
//                 independent of --threads), but NOT bit-identical to the
//                 reference: it reassociates reductions and is compiled with
//                 FMA contraction. It lives in the tolerance-banded fast-math
//                 tier (DESIGN.md "S-KER" band policy).
//   - auto:       per-call shape dispatch between the three, using the
//                 thresholds below. Because auto may pick vectorized, auto
//                 runs are banded too.
//
// The selection is process-wide:
//
//   - default: blocked;
//   - env var PDSL_KERNEL_BACKEND=naive|blocked|vectorized|auto overrides the
//     default at process start;
//   - set_backend() (plumbed from `--backend` on the CLI and the "backend"
//     JSON config key) overrides both, pinning a specific backend past the
//     dispatcher.
//
// Determinism: within one backend, results are a pure function of the
// inputs — the kernels are single-threaded, so --threads (which only sets
// how many agents run at once) never changes them. Across backends, naive ==
// blocked bitwise for the GEMM family; vectorized agrees only within
// tolerance bands.

#include <cstddef>
#include <string>

namespace pdsl::kernels {

enum class Backend {
  kNaive,       ///< reference loops (former tensor/ops + direct convolution)
  kBlocked,     ///< register-tiled, cache-blocked, bit-identical to naive
  kVectorized,  ///< S-VEC microkernel: fast-math tier, tolerance-banded
  kAuto,        ///< per-shape dispatch between the three (banded)
};

// S-VEC auto-dispatch thresholds over (rows, depth, cols) of each GEMM call,
// where `rows` counts output rows, `depth` the reduction length and `cols`
// the contiguous inner dimension:
//   sgemm(m,k,n)             -> (m, k, n)
//   sgemm_transpose_a(m,k,n) -> (k, m, n)
//   sgemm_transpose_b(m,n,k) -> (m, n, k)
/// At or below this many multiply-adds the call is loop-overhead bound and
/// tile setup cannot pay for itself: dispatch to naive.
inline constexpr std::size_t kAutoNaiveMaxFlops = 4096;
/// Minimum reduction length for the vectorized tier — shorter reductions
/// cannot amortize the register-tile fill/drain and the lane fold.
inline constexpr std::size_t kAutoVecMinDepth = 16;
/// Minimum output columns for the vectorized tier — narrower outputs leave
/// the column tile mostly ragged.
inline constexpr std::size_t kAutoVecMinCols = 8;

/// Current process-wide backend (env-initialized on first use).
[[nodiscard]] Backend backend() noexcept;

/// Select the process-wide backend. Safe to call between runs; not meant to
/// be raced against in-flight kernels.
void set_backend(Backend b) noexcept;

/// The backend a GEMM call of shape (rows, depth, cols) actually runs on:
/// `pinned` itself unless it is kAuto, in which case the threshold table
/// above picks naive, blocked or vectorized. Pure function of its arguments —
/// the dispatch unit tests in tests/test_kernels.cpp pin its boundaries.
[[nodiscard]] Backend resolve_backend(Backend pinned, std::size_t rows, std::size_t depth,
                                      std::size_t cols) noexcept;

/// "naive" | "blocked" | "vectorized" | "auto" (throws std::invalid_argument
/// otherwise).
[[nodiscard]] Backend backend_from_string(const std::string& name);

/// Inverse of backend_from_string.
[[nodiscard]] const char* backend_name(Backend b) noexcept;

// S-ISA: the blocked GEMM tiles are compiled three times, at the float
// vector width of each x86-64 level (gemm.cpp), and each call runs the widest
// clone the host supports. The level is detected once, on first use, with
// __builtin_cpu_supports; no flag, config key or environment variable
// changes it. Every clone gives each output element the same chain as the
// naive loop, so the level never changes a result bit.

enum class Isa {
  kBaseline,  ///< x86-64 baseline (SSE2): 4 floats / 2 doubles per vector
  kAvx2,      ///< AVX2 without FMA: 8 floats / 4 doubles
  kAvx512,    ///< AVX-512F without FMA contraction: 16 floats / 8 doubles
};

/// The widest level this host runs (detected once).
[[nodiscard]] Isa host_isa() noexcept;

/// The level the blocked kernels dispatch to: host_isa(), lowered to the cap
/// set by set_isa_cap.
[[nodiscard]] Isa isa() noexcept;

/// Caps the dispatched level at `cap` (kAvx512 removes the cap). For tests
/// and benches that time or check each level; a cap above host_isa() has no
/// effect.
void set_isa_cap(Isa cap) noexcept;

/// "baseline" | "avx2" | "avx512f".
[[nodiscard]] const char* isa_name(Isa level) noexcept;

/// Name of the dispatched level, isa_name(isa()).
[[nodiscard]] const char* isa_name() noexcept;

}  // namespace pdsl::kernels
