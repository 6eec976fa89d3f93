// S-RT runtime: ThreadPool lifecycle, parallel_for semantics (chunking,
// barriers, exceptions, nested-call rejection) and the determinism contract —
// bit-identical experiment results at every --threads setting.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/metrics.hpp"

using namespace pdsl;
using pdsl::runtime::ThreadPool;

namespace {

/// Restore the global width so test order can't leak a pool into later tests.
struct WidthGuard {
  ~WidthGuard() { runtime::set_global_threads(1); }
};

}  // namespace

TEST(ThreadPoolTest, StartsAndStopsCleanly) {
  for (std::size_t n : {1u, 2u, 7u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }  // destructor joins; nothing to assert beyond "no hang / no crash"
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    // Destructor waits for in-flight tasks? No — it discards *queued* tasks.
    // Use parallel_for's barrier to flush instead.
    pool.parallel_for(0, 1, 1, [](std::size_t) {});
  }
  // All 50 either ran or were discarded at shutdown; with the barrier after
  // them (FIFO queue) they all ran first.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {0u, 1u, 3u, 16u, 1000u}) {
    std::vector<int> hits(257, 0);
    pool.parallel_for(0, hits.size(), grain,
                      [&hits](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257) << grain;
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, 1, [&calls](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(9, 3, 1, [&calls](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ExceptionPropagatesAfterBarrier) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(0, 64, 1, [&completed](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Barrier semantics: the other 63 indices still ran to completion.
  EXPECT_EQ(completed.load(), 63);
  // The pool survives an exception and remains usable.
  std::atomic<int> after{0};
  pool.parallel_for(0, 8, 1, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForIsRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 4, 1,
                                 [&pool](std::size_t) {
                                   pool.parallel_for(0, 2, 1, [](std::size_t) {});
                                 }),
               std::logic_error);
}

TEST(RuntimeTest, ResolveThreads) {
  EXPECT_GE(runtime::resolve_threads(0), 1u);  // auto-detect, never 0
  EXPECT_EQ(runtime::resolve_threads(1), 1u);
  EXPECT_EQ(runtime::resolve_threads(6), 6u);
}

TEST(RuntimeTest, GlobalParallelForAtEveryWidth) {
  WidthGuard guard;
  for (std::size_t w : {1u, 2u, 4u}) {
    runtime::set_global_threads(w);
    EXPECT_EQ(runtime::global_threads(), w);
    std::vector<std::size_t> out(100, 0);
    runtime::parallel_for(0, out.size(), 1,
                          [&out](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(RuntimeTest, NestingRejectedAndRecoveredAtEveryWidth) {
  WidthGuard guard;
  // Width 1 runs inline, but must enforce the same contract as the pool so
  // nesting bugs surface in sequential CI runs, not only at --threads N.
  auto nested = [] {
    runtime::parallel_for(0, 3, 1, [](std::size_t) {
      runtime::parallel_for(0, 2, 1, [](std::size_t) {});
    });
  };
  for (std::size_t w : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(w));
    runtime::set_global_threads(w);
    EXPECT_THROW(nested(), std::logic_error);
    // A throwing body leaves no thread flagged: the region guard unwinds, so
    // nesting is still rejected and the next parallel_for runs every index.
    EXPECT_THROW(runtime::parallel_for(0, 4, 1,
                                       [](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    EXPECT_THROW(nested(), std::logic_error);
    std::vector<int> after(8, 0);
    runtime::parallel_for(0, after.size(), 1, [&after](std::size_t i) { after[i] = 1; });
    EXPECT_EQ(std::accumulate(after.begin(), after.end(), 0), 8);
  }
}

TEST(RuntimeTest, ObsInstrumentsAreSafeFromWorkerThreads) {
  WidthGuard guard;
  runtime::set_global_threads(4);
  obs::TraceRecorder::global().enable(true);
  const std::size_t before = obs::TraceRecorder::global().size();
  runtime::parallel_for(0, 512, 1, [](std::size_t i) { PDSL_SPAN("test.runtime.span", i); });
  obs::TraceRecorder::global().enable(false);
  EXPECT_EQ(obs::TraceRecorder::global().size(), before + 512);
}

namespace {

core::ExperimentConfig det_config(const std::string& algorithm) {
  core::ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.dataset = "mnist_like";
  cfg.model = "logistic";
  cfg.topology = "full";
  cfg.agents = 6;
  cfg.rounds = 3;
  cfg.train_samples = 360;
  cfg.test_samples = 60;
  cfg.validation_samples = 48;
  cfg.image = 3;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "dpsgd";  // noise on: exercises the per-agent RNG streams
  cfg.noise_scale = 0.1;
  cfg.drop_prob = 0.15;  // lossy links: exercises hash-based drop decisions
  cfg.metrics.test_subsample = 40;
  cfg.metrics.eval_every = 1;
  return cfg;
}

void expect_bit_identical(const core::ExperimentResult& a,
                          const core::ExperimentResult& b) {
  // Model parameters: exact float equality, element by element.
  ASSERT_EQ(a.average_model.size(), b.average_model.size());
  EXPECT_TRUE(a.average_model == b.average_model);
  // Every deterministic column exact (the wall-clock ones legitimately differ).
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t r = 0; r < a.series.size(); ++r) {
    EXPECT_EQ(sim::deterministic_diff(a.series[r], b.series[r]), "") << "round " << r;
  }
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

}  // namespace

TEST(RuntimeDeterminism, PdslBitIdenticalAcrossWidths) {
  WidthGuard guard;
  auto cfg = det_config("pdsl");
  cfg.threads = 1;
  const auto seq = core::run_experiment(cfg);
  cfg.threads = 4;
  const auto par = core::run_experiment(cfg);
  expect_bit_identical(seq, par);
}

// dp_dpsgd runs its per-agent phases in parallel_for; async_dp_gossip's wake
// events run sequentially on the caller at every width, with only the
// metrics loop fanned out, so its CNN GEMMs run outside any parallel body.
TEST(RuntimeDeterminism, BaselineBitIdenticalAcrossWidths) {
  WidthGuard guard;
  auto async_cnn = det_config("async_dp_gossip");
  async_cnn.dataset = "cifar_like";
  async_cnn.model = "cifar_cnn";
  async_cnn.image = 8;
  async_cnn.agents = 4;
  async_cnn.rounds = 2;
  async_cnn.train_samples = 160;
  async_cnn.hp.gamma = 0.01;
  for (auto cfg : {det_config("dp_dpsgd"), async_cnn}) {
    SCOPED_TRACE(cfg.algorithm);
    cfg.threads = 1;
    const auto seq = core::run_experiment(cfg);
    cfg.threads = 4;
    const auto par = core::run_experiment(cfg);
    expect_bit_identical(seq, par);
  }
}

TEST(RuntimeDeterminism, AutoDetectWidthAlsoMatches) {
  WidthGuard guard;
  auto cfg = det_config("pdsl");
  cfg.rounds = 2;
  cfg.threads = 1;
  const auto seq = core::run_experiment(cfg);
  cfg.threads = 0;  // hardware_concurrency
  const auto par = core::run_experiment(cfg);
  expect_bit_identical(seq, par);
}

// The per-round metrics loop scores every agent's model on that agent's own
// worker inside one parallel_for; its sums fold in agent order after the
// barrier. A CNN run whose test subsample spans several evaluate() batches
// must report the same loss, accuracy and consensus at every width.
TEST(RuntimeDeterminism, CnnMetricsLoopBitIdenticalAcrossWidths) {
  WidthGuard guard;
  auto cfg = det_config("pdsl");
  cfg.dataset = "cifar_like";
  cfg.model = "cifar_cnn";
  cfg.image = 8;
  cfg.agents = 3;
  cfg.rounds = 2;
  cfg.train_samples = 180;
  cfg.test_samples = 300;
  cfg.metrics.test_subsample = 300;  // three evaluate() batches of <= 128
  cfg.hp.gamma = 0.01;
  cfg.threads = 1;
  const auto seq = core::run_experiment(cfg);
  ASSERT_GT(seq.series.back().test_accuracy, 0.0);
  for (std::size_t w : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(w));
    cfg.threads = w;
    expect_bit_identical(seq, core::run_experiment(cfg));
  }
}

// Lazy fleet: the metric prefix (12 agents) is larger than the active set (4)
// and the worker cache (6) is smaller than their union, so every round's
// metrics loop materializes evicted workers from inside the parallel body.
TEST(RuntimeDeterminism, LazyFleetMetricsLoopMaterializesWorkersIdentically) {
  WidthGuard guard;
  auto cfg = det_config("pdsl");
  cfg.agents = 24;
  cfg.train_samples = 720;
  cfg.topology = "regular";
  cfg.fleet.sparse = true;
  cfg.fleet.degree = 4;
  cfg.fleet.participation.mode = fleet::ParticipationMode::kSampled;
  cfg.fleet.participation.active = 4;
  cfg.fleet.lazy_state = true;
  cfg.fleet.worker_cache = 6;
  cfg.metrics.metric_agents = 12;
  cfg.threads = 1;
  const auto seq = core::run_experiment(cfg);
  // prepare() alone peaks at cache + active; anything above that was
  // materialized by the metrics loop.
  EXPECT_GT(seq.workers_peak, cfg.fleet.worker_cache + cfg.fleet.participation.active);
  cfg.threads = 4;
  const auto par = core::run_experiment(cfg);
  expect_bit_identical(seq, par);
  EXPECT_EQ(seq.workers_peak, par.workers_peak);
}
