#pragma once
// Deterministic parallel agent-execution engine (S-RT). A fixed-size pool of
// worker threads drains a blocking task queue; ThreadPool::parallel_for cuts
// an index range into statically-sized chunks and blocks until every chunk
// ran. Determinism contract: the *assignment* of indices to threads is
// irrelevant to results as long as every index's work touches only its own
// pre-sized output slot and its own RNG stream — which is how every per-agent
// phase in this codebase is written — so `threads=N` is bit-identical to
// `threads=1`. Barriers live exactly where the sequential code had phase
// boundaries: parallel_for returns only after the whole range completed.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdsl::runtime {

namespace detail {
/// Marks the calling thread as inside a parallel_for body for the guard's
/// lifetime. Both the pool's chunks and the width-1 inline path in
/// runtime::parallel_for run their bodies under one, so nesting rejection
/// behaves the same at every width. Throws std::logic_error when the thread
/// is already inside a body. The flag behind it is private to
/// thread_pool.cpp.
class ParallelRegion {
 public:
  ParallelRegion();
  ~ParallelRegion();
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;
};
}  // namespace detail

/// Fixed-size worker pool over one blocking FIFO queue. Construction spawns
/// the workers; destruction drains nothing — it wakes everyone, joins, and
/// discards tasks still queued (submit after shutdown throws).
class ThreadPool {
 public:
  /// Spawn `threads` workers (must be >= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue one task. Throws std::runtime_error after shutdown began.
  void submit(std::function<void()> task);

  /// Run body(i) for every i in [begin, end), cut into chunks of at least
  /// `grain` consecutive indices (grain 0 counts as 1). Chunks are executed
  /// by the pool's workers; the caller blocks until every chunk ran — the
  /// call is a barrier, and pool size = number of threads doing work. The
  /// first exception any chunk throws is rethrown here after all chunks
  /// completed. Calling parallel_for from a task already inside a
  /// parallel_for body is rejected with std::logic_error.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pdsl::runtime
