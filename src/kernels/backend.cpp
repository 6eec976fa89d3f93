#include "kernels/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pdsl::kernels {

namespace {

Backend initial_backend() noexcept {
  if (const char* env = std::getenv("PDSL_KERNEL_BACKEND")) {
    const std::string name(env);
    if (name == "naive") return Backend::kNaive;
    if (name == "vectorized") return Backend::kVectorized;
    if (name == "auto") return Backend::kAuto;
    if (!name.empty() && name != "blocked") {
      std::fprintf(stderr,
                   "PDSL_KERNEL_BACKEND='%s' not recognized, using 'blocked'\n",
                   env);
    }
  }
  return Backend::kBlocked;
}

std::atomic<Backend>& state() {
  static std::atomic<Backend> backend{initial_backend()};
  return backend;
}

Isa detect_isa() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();  // host_isa() may first run from a static initializer
  // __builtin_cpu_supports also checks that the OS saves the wider register
  // state (XGETBV), not only the CPUID bit.
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kBaseline;
}

std::atomic<Isa>& isa_cap() {
  static std::atomic<Isa> cap{Isa::kAvx512};
  return cap;
}

}  // namespace

Isa host_isa() noexcept {
  static const Isa detected = detect_isa();
  return detected;
}

Isa isa() noexcept { return std::min(host_isa(), isa_cap().load(std::memory_order_relaxed)); }

void set_isa_cap(Isa cap) noexcept { isa_cap().store(cap, std::memory_order_relaxed); }

const char* isa_name(Isa level) noexcept {
  switch (level) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512f";
  }
  return "baseline";
}

const char* isa_name() noexcept { return isa_name(isa()); }

Backend backend() noexcept { return state().load(std::memory_order_relaxed); }

void set_backend(Backend b) noexcept { state().store(b, std::memory_order_relaxed); }

Backend resolve_backend(Backend pinned, std::size_t rows, std::size_t depth,
                        std::size_t cols) noexcept {
  if (pinned != Backend::kAuto) return pinned;
  // Widening before the product keeps 4Gi-element shapes from wrapping on
  // 32-bit size_t hosts; the thresholds themselves are tiny.
  const unsigned long long flops = static_cast<unsigned long long>(rows) *
                                   static_cast<unsigned long long>(depth) *
                                   static_cast<unsigned long long>(cols);
  if (flops <= kAutoNaiveMaxFlops) return Backend::kNaive;
  if (depth >= kAutoVecMinDepth && cols >= kAutoVecMinCols) return Backend::kVectorized;
  return Backend::kBlocked;
}

Backend backend_from_string(const std::string& name) {
  if (name == "naive") return Backend::kNaive;
  if (name == "blocked") return Backend::kBlocked;
  if (name == "vectorized") return Backend::kVectorized;
  if (name == "auto") return Backend::kAuto;
  throw std::invalid_argument("kernels: unknown backend '" + name +
                              "' (expected 'naive', 'blocked', 'vectorized' or 'auto')");
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kNaive:
      return "naive";
    case Backend::kBlocked:
      return "blocked";
    case Backend::kVectorized:
      return "vectorized";
    case Backend::kAuto:
      return "auto";
  }
  return "blocked";
}

}  // namespace pdsl::kernels
