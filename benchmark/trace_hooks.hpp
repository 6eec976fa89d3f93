#pragma once
// Link-time seam between the benchmark runner and the optional layer tracer.
//
// pdsl_benchmark_traced links trace_wrap.cpp, which defines these hooks;
// pdsl_benchmark does not, so the weak references resolve to null and the
// runner skips every tracing call. The runner calls them from its main
// thread only, outside any parallel region.

#include <cstddef>

extern "C" {

/// The runner is about to start repetition `rep` (0-based). Rounds seen by
/// the tracer from now on belong to this repetition.
void pdsl_bench_trace_rep(std::size_t rep) __attribute__((weak));

/// Record every span of round `round` of repetition `rep` for the Chrome
/// trace (call before that repetition starts).
void pdsl_bench_trace_capture(std::size_t rep, std::size_t round) __attribute__((weak));

/// Merge the per-thread tables and write the per-round layer totals to
/// `per_layer_path` and the captured round's spans to `chrome_path`.
/// Returns false (after printing why) if a file could not be written.
bool pdsl_bench_trace_dump(const char* per_layer_path, const char* chrome_path)
    __attribute__((weak));

}  // extern "C"
