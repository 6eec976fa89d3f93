#pragma once
// Process-wide runtime configuration and the parallel_for primitive the round
// loop is written against (S-RT). Algorithms never touch ThreadPool directly:
// they call runtime::parallel_for, which runs inline when the configured
// width is 1 (the default — exactly the pre-runtime sequential behavior) and
// fans out over the lazily-created global pool otherwise.
//
// Configuration is plumbed from `--threads N` (CLI, JSON configs, benches):
//   1 = sequential (default), 0 = auto-detect (hardware_concurrency),
//   N = fixed pool of N threads.
// This is the codebase's only level of parallelism: --threads sets how many
// agents run at once, and the kernels under each agent are single-threaded.
// set_global_threads is meant for startup / between runs; it must not race
// with an in-flight parallel_for.

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"

namespace pdsl::runtime {

/// Resolve a requested width: 0 -> hardware_concurrency (at least 1),
/// anything else unchanged.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// Set the process-wide execution width (resolves 0 first). Tears down the
/// old pool (a barrier: all queued work finished) and builds the new one on
/// the next parallel call. Not safe to call concurrently with parallel_for.
void set_global_threads(std::size_t threads);

/// The currently configured (resolved) width.
[[nodiscard]] std::size_t global_threads();

/// Run body(i) for i in [begin, end) on the global pool, in chunks of at
/// least `grain` indices; blocks until the range completed (a barrier).
/// Width 1 runs inline on the caller, in order. Nested calls throw
/// std::logic_error at every width. Exceptions from the body propagate to the
/// caller (first one wins).
///
/// Determinism contract: a body that (a) writes only to slot i of pre-sized
/// containers, (b) draws randomness only from streams split per index up
/// front, and (c) routes cross-index data through thread-safe channels whose
/// observable state is order-independent (sim::Network), produces bit-equal
/// results at every width.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& body);

}  // namespace pdsl::runtime
