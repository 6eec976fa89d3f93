#include "runtime/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

namespace pdsl::runtime {

namespace {
// Guards against nested parallelism, which the engine does not support (and
// which would deadlock a fully-busy pool). Only this translation unit touches
// it: everyone else goes through ParallelRegion.
thread_local bool t_inside_parallel_body = false;

void reject_nested() {
  if (t_inside_parallel_body) {
    throw std::logic_error("parallel_for: nested call from inside a parallel_for body");
  }
}
}  // namespace

detail::ParallelRegion::ParallelRegion() {
  reject_nested();
  t_inside_parallel_body = true;
}

detail::ParallelRegion::~ParallelRegion() { t_inside_parallel_body = false; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: at least one worker required");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) throw std::runtime_error("ThreadPool::submit: pool is shut down");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  reject_nested();
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunk = std::max<std::size_t>(1, grain);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;

  // Shared completion/error state for this one call. Chunks after the first
  // failure still "complete" (as no-ops would be wrong — they may be running
  // already), but their work is the caller's loss: the first exception wins.
  //
  // Join lives on the caller's stack: this frame outlives the barrier, and
  // workers only ever touch it under its mutex. The notify happens while the
  // lock is held so the last worker's final access to the condition variable
  // completes before the caller can re-acquire the lock, observe
  // remaining == 0 and unwind the frame. The closures queued on the pool
  // capture only a raw pointer, so their (post-barrier) destruction on a
  // worker thread frees nothing the caller still reads — in particular the
  // error exception object is owned solely by this frame.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  Join join;
  join.remaining = num_chunks;

  auto run_chunk = [begin, end, chunk, &body, pjoin = &join](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    try {
      detail::ParallelRegion region;
      for (std::size_t i = lo; i < hi; ++i) body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(pjoin->mu);
      if (!pjoin->error) pjoin->error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(pjoin->mu);
      --pjoin->remaining;
      pjoin->cv.notify_one();
    }
  };

  // Enqueue every chunk and block: the configured width is exactly the
  // number of threads doing work (the caller sleeps, it doesn't compute).
  // The body reference stays valid because this frame outlives the barrier.
  for (std::size_t c = 0; c < num_chunks; ++c) {
    submit([run_chunk, c] { run_chunk(c); });
  }
  {
    std::unique_lock<std::mutex> lock(join.mu);
    join.cv.wait(lock, [&join] { return join.remaining == 0; });
    if (join.error) std::rethrow_exception(join.error);
  }
}

}  // namespace pdsl::runtime
