#pragma once
// S-KER backend registry. The hot math (GEMM, convolution) exists in two
// implementations:
//
//   - blocked: register-tiled kernels with the SAME per-element accumulation
//              order as naive, bit-identical to it; the production path and
//              the default;
//   - naive:   the original loops, kept as the bit-for-bit reference for
//              differential testing and for bisecting a kernel bug with one
//              flag (--backend naive).
//
// The selection is process-wide: blocked unless set_backend() (plumbed from
// `--backend` on the CLI and the "backend" JSON config key, which every
// run_experiment call applies) picks naive.
//
// Determinism: within one backend, results are a pure function of the
// inputs — the kernels are single-threaded, so --threads (which only sets
// how many agents run at once) never changes them. Across backends, naive ==
// blocked bitwise for the GEMM family; the direct and im2col convolutions
// agree to rounding.

#include <string>

namespace pdsl::kernels {

enum class Backend {
  kNaive,    ///< reference loops (former tensor/ops + direct convolution)
  kBlocked,  ///< register-tiled, cache-blocked, bit-identical to naive
};

/// Current process-wide backend (blocked until set_backend changes it).
[[nodiscard]] Backend backend() noexcept;

/// Select the process-wide backend. Safe to call between runs; not meant to
/// be raced against in-flight kernels.
void set_backend(Backend b) noexcept;

/// "naive" | "blocked" (throws std::invalid_argument naming both otherwise).
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
  kAvx512,    ///< AVX-512F: 16 floats / 8 doubles; fuses only the exact double
              ///< multiply-adds of sgemm_transpose_b
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
