#include "runtime/parallel_for.hpp"

#include <memory>
#include <mutex>

namespace pdsl::runtime {

namespace {

struct GlobalRuntime {
  std::mutex mu;
  std::size_t threads = 1;
  std::unique_ptr<ThreadPool> pool;  ///< created lazily, only when threads > 1
};

GlobalRuntime& state() {
  static auto* s = new GlobalRuntime();  // leaky: outlives static dtors
  return *s;
}

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void set_global_threads(std::size_t threads) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::size_t resolved = resolve_threads(threads);
  if (resolved == s.threads) return;
  s.pool.reset();  // joins the old workers (all queued work done)
  s.threads = resolved;
}

std::size_t global_threads() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.threads;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool* pool = nullptr;
  {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.threads > 1) {
      if (!s.pool) s.pool = std::make_unique<ThreadPool>(s.threads);
      pool = s.pool.get();
    }
  }
  if (pool != nullptr) {
    pool->parallel_for(begin, end, grain, body);
    return;
  }
  // Sequential fallback under the same region guard as the pool's chunks,
  // so nesting rejection does not depend on width.
  detail::ParallelRegion region;
  for (std::size_t i = begin; i < end; ++i) body(i);
}

}  // namespace pdsl::runtime
