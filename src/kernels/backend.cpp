#include "kernels/backend.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace pdsl::kernels {

namespace {

std::atomic<Backend> g_backend{Backend::kBlocked};

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

Backend backend() noexcept { return g_backend.load(std::memory_order_relaxed); }

void set_backend(Backend b) noexcept { g_backend.store(b, std::memory_order_relaxed); }

Backend backend_from_string(const std::string& name) {
  if (name == "naive") return Backend::kNaive;
  if (name == "blocked") return Backend::kBlocked;
  throw std::invalid_argument("kernels: unknown backend '" + name +
                              "' (expected 'naive' or 'blocked')");
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kNaive:
      return "naive";
    case Backend::kBlocked:
      return "blocked";
  }
  return "blocked";
}

}  // namespace pdsl::kernels
