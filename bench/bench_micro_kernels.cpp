// Microbenchmarks for the hot kernels underneath the experiments. Two parts:
//
//  1. The S-KER naive-vs-blocked-vs-vectorized sweep (default): GEMM,
//     sgemm_transpose_b and convolution timings at the MNIST-CNN, CIFAR-CNN
//     and benchmark-workload shapes, written as a speedup table to
//     BENCH_kernels.json (override with --out). Acceptance signals, all
//     single-thread and none waivable: the blocked conv forward+backward
//     speedup at the CIFAR-CNN shapes (S-KER), the blocked tb speedup over
//     naive at every tb shape, gated at >= 2.4x, and the vectorized speedup
//     at the square GEMM shapes, gated at >= 1.3x (S-VEC). A `dp_noise` row
//     times dp::add_gaussian_noise against the per-coordinate Rng::normal
//     loop on one 25,450-float gradient, gated at >= 3x. `--threads N`
//     additionally times the blocked backend at an intra-op width of N
//     (top-level kernels only; inside the round loop's per-agent phases
//     kernels stay sequential).
//     Flags: --out <path> --reps <n> --threads <n>
//
//  2. The original google-benchmark suite (matmul, model gradients, DP
//     mechanism, Shapley, QP, gossip): pass --gbench to run it (with
//     google-benchmark's default options).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "dp/mechanism.hpp"
#include "graph/mixing.hpp"
#include "kernels/backend.hpp"
#include "kernels/gemm.hpp"
#include "nn/conv2d.hpp"
#include "nn/model_zoo.hpp"
#include "optim/qp.hpp"
#include "runtime/parallel_for.hpp"
#include "shapley/game.hpp"
#include "shapley/shapley.hpp"
#include "tensor/ops.hpp"

using namespace pdsl;

// ---------------------------------------------------------------------------
// S-KER sweep
// ---------------------------------------------------------------------------

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}

/// Best-of-3 trials of `reps` calls each; returns ms per call.
template <typename F>
double time_ms(std::size_t reps, F&& fn) {
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, sw.elapsed_ms() / static_cast<double>(reps));
  }
  return best;
}

struct SweepRow {
  std::string name;
  std::string kind;   // "gemm" | "conv"
  std::string shape;  // human-readable
  double naive_ms = 0.0;
  double blocked_ms = 0.0;
  double vec_ms = 0.0;         // S-VEC register-tiled backend
  double blocked_mt_ms = 0.0;  // blocked at --threads width (0 = not run)
};

/// Fills the row's timings: `fn` on the naive, blocked and vectorized
/// backends single-threaded, plus blocked at an intra-op width of `threads`
/// when that is above 1.
template <typename F>
void time_backends(SweepRow& row, std::size_t reps, std::size_t threads, F&& fn) {
  runtime::set_global_threads(1);
  kernels::set_backend(kernels::Backend::kNaive);
  row.naive_ms = time_ms(reps, fn);
  kernels::set_backend(kernels::Backend::kBlocked);
  row.blocked_ms = time_ms(reps, fn);
  kernels::set_backend(kernels::Backend::kVectorized);
  row.vec_ms = time_ms(reps, fn);
  if (threads > 1) {
    kernels::set_backend(kernels::Backend::kBlocked);
    runtime::set_global_threads(threads);
    row.blocked_mt_ms = time_ms(reps, fn);
    runtime::set_global_threads(1);
  }
}

struct GemmShape {
  const char* name;
  std::size_t m, k, n;
};

struct ConvShape {
  const char* name;
  std::size_t batch, in_ch, out_ch, k, pad, image;
};

// The two CNNs of the paper's evaluation (model_zoo): conv layer geometries
// at their bench batch size, plus the fully-connected heads as GEMM shapes.
const GemmShape kGemmShapes[] = {
    {"gemm_square_64", 64, 64, 64},
    {"gemm_square_128", 128, 128, 128},
    {"gemm_square_256", 256, 256, 256},
    {"gemm_mnist_fc", 32, 144, 10},   // Linear(16*3*3 -> 10), batch 32
    {"gemm_cifar_fc1", 32, 256, 64},  // Linear(16*4*4 -> 64), batch 32
};

// sgemm_transpose_b C(m,k) = A(m,n) * B(k,n)^T at the shapes the benchmark
// workloads run it: the Linear forward of the Table I MLP, the stacked
// first-layer GEMM of linear-mode Shapley scoring, and the per-image conv
// weight gradients of the 12x12 CIFAR CNN (dW += dY * cols^T).
struct TbShape {
  const char* name;
  std::size_t m, n, k;
  bool accumulate;
};

const TbShape kTbShapes[] = {
    {"tb_linear_fwd", 32, 784, 32, false},    // Linear(784 -> 32), batch 32
    {"tb_shapley_stack", 64, 784, 64, true},  // validation batch 64, 2 models' W
    {"tb_cifar_dw_l1", 8, 144, 75, true},     // conv1 3->8 k5, 12x12
    {"tb_cifar_dw_l2", 16, 36, 200, true},    // conv2 8->16 k5, 6x6
};

const ConvShape kConvShapes[] = {
    {"conv_mnist_l1", 32, 1, 8, 3, 1, 14},   // make_mnist_cnn(14): conv1
    {"conv_mnist_l2", 32, 8, 16, 3, 1, 7},   // conv2 after pool
    {"conv_cifar_l1", 32, 3, 8, 5, 2, 16},   // make_cifar_cnn(16): conv1
    {"conv_cifar_l2", 32, 8, 16, 5, 2, 8},   // conv2 after pool
};

double run_gemm_once(const GemmShape& s, const std::vector<float>& a,
                     const std::vector<float>& b, std::vector<float>& c) {
  kernels::sgemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
  return static_cast<double>(c[0]);
}

SweepRow sweep_gemm(const GemmShape& s, std::size_t reps, std::size_t threads) {
  const auto a = random_vec(s.m * s.k, 1);
  const auto b = random_vec(s.k * s.n, 2);
  std::vector<float> c(s.m * s.n);
  SweepRow row;
  row.name = s.name;
  row.kind = "gemm";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zux%zux%zu", s.m, s.k, s.n);
  row.shape = buf;
  time_backends(row, reps, threads,
                [&] { benchmark::DoNotOptimize(run_gemm_once(s, a, b, c)); });
  return row;
}

SweepRow sweep_tb(const TbShape& s, std::size_t reps, std::size_t threads) {
  const auto a = random_vec(s.m * s.n, 1);
  const auto b = random_vec(s.k * s.n, 2);
  std::vector<float> c(s.m * s.k);
  auto call = [&] {
    kernels::sgemm_transpose_b(s.m, s.n, s.k, a.data(), b.data(), c.data(), s.accumulate);
    benchmark::DoNotOptimize(c[0]);
  };
  SweepRow row;
  row.name = s.name;
  row.kind = "gemm_tb";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zux%zu->%zu%s", s.m, s.n, s.k, s.accumulate ? " acc" : "");
  row.shape = buf;
  time_backends(row, reps, threads, call);
  return row;
}

SweepRow sweep_conv(const ConvShape& s, std::size_t reps, std::size_t threads) {
  nn::Conv2D conv(s.in_ch, s.out_ch, s.k, s.pad);
  Rng rng(3);
  conv.init(rng);
  Tensor x(Shape{s.batch, s.in_ch, s.image, s.image},
           random_vec(s.batch * s.in_ch * s.image * s.image, 4));
  const Shape out_shape = conv.output_shape(x.shape());
  Tensor gy(out_shape, random_vec(shape_numel(out_shape), 5));
  // One rep = forward + backward, the unit of work every SGD step pays per
  // layer. Parameter grads are cleared each rep so they cannot drift to inf.
  auto step = [&] {
    for (nn::Param* p : conv.params()) p->grad.zero();
    const Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(conv.backward(gy));
    benchmark::DoNotOptimize(y[0]);
  };
  SweepRow row;
  row.name = s.name;
  row.kind = "conv";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "b%zu %zux%zux%zu k%zu p%zu -> %zuch", s.batch, s.in_ch,
                s.image, s.image, s.k, s.pad, s.out_ch);
  row.shape = buf;
  time_backends(row, reps, threads, step);
  return row;
}

/// The DP noise row: dp::add_gaussian_noise (the ziggurat sampler) against
/// the per-coordinate Rng::normal loop it replaced, on one thread and one
/// gradient of the Table I MLP (784*32 + 32 + 32*10 + 10 = 25,450 floats).
struct NoiseRow {
  double reference_ms = 0.0;
  double ziggurat_ms = 0.0;
};

NoiseRow time_dp_noise(std::size_t reps) {
  constexpr std::size_t kDim = 25450;
  constexpr double kSigma = 0.1;
  std::vector<float> g(kDim, 0.0f);
  Rng rng(7);
  runtime::set_global_threads(1);
  NoiseRow row;
  row.reference_ms = time_ms(reps, [&] {
    for (auto& v : g) v += static_cast<float>(rng.normal(0.0, kSigma));
    benchmark::DoNotOptimize(g.data());
  });
  row.ziggurat_ms = time_ms(reps, [&] {
    dp::add_gaussian_noise(g, kSigma, rng);
    benchmark::DoNotOptimize(g.data());
  });
  return row;
}

int run_kernel_sweep(const CliArgs& args) {
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 20));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const kernels::Backend entry_backend = kernels::backend();

  std::printf(
      "==== bench_micro_kernels: naive vs blocked vs vectorized (reps=%zu, threads=%zu) "
      "====\n",
      reps, threads);
  std::printf("%-16s %-24s %12s %12s %12s %9s %9s\n", "kernel", "shape", "naive_ms",
              "blocked_ms", "vec_ms", "blk_spd", "vec_spd");

  std::vector<SweepRow> rows;
  for (const auto& s : kGemmShapes) rows.push_back(sweep_gemm(s, reps, threads));
  for (const auto& s : kTbShapes) rows.push_back(sweep_tb(s, reps, threads));
  for (const auto& s : kConvShapes) rows.push_back(sweep_conv(s, reps, threads));
  kernels::set_backend(entry_backend);

  pdsl::bench::BenchEnvelope env("kernels", "micro");
  {
    pdsl::json::Object c;
    c["reps"] = reps;
    c["threads"] = threads;
    c["conv_unit"] = std::string("forward+backward per batch");
    env.set_config(std::move(c));
  }

  double cifar_conv_min_speedup = 1e30;
  double square_gemm_vec_min_speedup = 1e30;
  double tb_blocked_min_speedup = 1e30;
  for (const auto& r : rows) {
    const double speedup = r.blocked_ms > 0 ? r.naive_ms / r.blocked_ms : 0.0;
    const double vec_speedup = r.vec_ms > 0 ? r.naive_ms / r.vec_ms : 0.0;
    if (r.name.rfind("conv_cifar", 0) == 0) {
      cifar_conv_min_speedup = std::min(cifar_conv_min_speedup, speedup);
    }
    if (r.name.rfind("gemm_square", 0) == 0) {
      square_gemm_vec_min_speedup = std::min(square_gemm_vec_min_speedup, vec_speedup);
    }
    if (r.kind == "gemm_tb") tb_blocked_min_speedup = std::min(tb_blocked_min_speedup, speedup);
    std::printf("%-16s %-24s %12.4f %12.4f %12.4f %8.2fx %8.2fx\n", r.name.c_str(),
                r.shape.c_str(), r.naive_ms, r.blocked_ms, r.vec_ms, speedup, vec_speedup);
    env.add_metric_sample(r.name + ".naive_ms", "ms", r.naive_ms);
    env.add_metric_sample(r.name + ".blocked_ms", "ms", r.blocked_ms);
    env.add_metric_sample(r.name + ".vec_ms", "ms", r.vec_ms);
    env.add_metric_sample(r.name + ".speedup", "x", speedup);
    env.add_metric_sample(r.name + ".vec_speedup", "x", vec_speedup);
    pdsl::json::Object o;
    o["name"] = r.name;
    o["kind"] = r.kind;
    o["shape"] = r.shape;
    o["naive_ms"] = r.naive_ms;
    o["blocked_ms"] = r.blocked_ms;
    o["vec_ms"] = r.vec_ms;
    o["speedup"] = speedup;
    o["vec_speedup"] = vec_speedup;
    if (r.blocked_mt_ms > 0) {
      o["blocked_mt_ms"] = r.blocked_mt_ms;
      o["speedup_mt_vs_naive"] = r.naive_ms / r.blocked_mt_ms;
    }
    env.add_run(std::move(o));
  }
  env.add_metric_sample("cifar_conv_min_speedup", "x", cifar_conv_min_speedup);
  env.add_metric_sample("square_gemm_vec_min_speedup", "x", square_gemm_vec_min_speedup);
  env.add_metric_sample("tb_blocked_min_speedup", "x", tb_blocked_min_speedup);

  const NoiseRow noise = time_dp_noise(reps);
  const double noise_speedup = noise.ziggurat_ms > 0 ? noise.reference_ms / noise.ziggurat_ms : 0.0;
  std::printf("%-16s %-24s %12.4f %12s %12.4f %9s %8.2fx  (reference = Rng::normal loop)\n",
              "dp_noise", "25450 floats", noise.reference_ms, "-", noise.ziggurat_ms, "-",
              noise_speedup);
  env.add_metric_sample("dp_noise.reference_ms", "ms", noise.reference_ms);
  env.add_metric_sample("dp_noise.ziggurat_ms", "ms", noise.ziggurat_ms);
  env.add_metric_sample("dp_noise.speedup", "x", noise_speedup);
  {
    pdsl::json::Object o;
    o["name"] = std::string("dp_noise");
    o["kind"] = std::string("noise");
    o["shape"] = std::string("25450 floats");
    o["reference_ms"] = noise.reference_ms;
    o["ziggurat_ms"] = noise.ziggurat_ms;
    o["speedup"] = noise_speedup;
    env.add_run(std::move(o));
  }

  // Four acceptance contracts, each timed on one thread so the host's core
  // count does not enter, and none waivable. S-KER: blocked conv must beat
  // naive at the CIFAR-CNN shapes, and the blocked sgemm_transpose_b must
  // clear 2.4x over naive at every tb shape. S-VEC: the register-tiled
  // backend must clear 1.3x over naive on the square GEMM shapes. DP noise:
  // the ziggurat must clear 3x over the Rng::normal loop.
  const bool tb_gate_met = tb_blocked_min_speedup >= 2.4;
  const bool vec_gate_met = square_gemm_vec_min_speedup >= 1.3;
  const bool noise_gate_met = noise_speedup >= 3.0;
  pdsl::json::Object gate;
  gate["cifar_conv_min_speedup"] = cifar_conv_min_speedup;
  gate["tb_blocked_min_speedup"] = tb_blocked_min_speedup;
  gate["tb_blocked_threshold"] = 2.4;
  gate["square_gemm_vec_min_speedup"] = square_gemm_vec_min_speedup;
  gate["square_gemm_vec_threshold"] = 1.3;
  gate["dp_noise_speedup"] = noise_speedup;
  gate["dp_noise_threshold"] = 3.0;
  gate["passed"] = cifar_conv_min_speedup > 1.0 && tb_gate_met && vec_gate_met && noise_gate_met;
  env.set_acceptance(std::move(gate));
  if (!env.write(out_path)) return 1;
  std::printf("cifar conv min speedup: %.2fx\n", cifar_conv_min_speedup);
  std::printf("tb blocked min speedup: %.2fx (gate >=2.4x: %s)\n", tb_blocked_min_speedup,
              tb_gate_met ? "passed" : "FAILED");
  std::printf("square gemm vectorized min speedup: %.2fx (gate >=1.3x: %s)\n",
              square_gemm_vec_min_speedup, vec_gate_met ? "passed" : "FAILED");
  std::printf("dp noise ziggurat speedup: %.2fx (gate >=3x: %s)\n", noise_speedup,
              noise_gate_met ? "passed" : "FAILED");
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// google-benchmark suite (run with --gbench)
// ---------------------------------------------------------------------------

static void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n});
  rng.fill_normal(a.vec(), 0.0, 1.0);
  rng.fill_normal(b.vec(), 0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

static void BM_MnistCnnGradient(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Model m = nn::make_mnist_cnn(14, 1, 10);
  m.init(rng);
  Tensor x(Shape{batch, 1, 14, 14});
  rng.fill_normal(x.vec(), 0.0, 1.0);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.loss_and_backward(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MnistCnnGradient)->Arg(8)->Arg(32);

static void BM_MlpGradient(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::Model m = nn::make_mlp(100, 32, 10);
  m.init(rng);
  Tensor x(Shape{batch, 1, 10, 10});
  rng.fill_normal(x.vec(), 0.0, 1.0);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.loss_and_backward(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MlpGradient)->Arg(16)->Arg(64)->Arg(256);

static void BM_Privatize(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<float> g(d);
  rng.fill_normal(g, 0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::privatize(g, 1.0, 0.1, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_Privatize)->Arg(1000)->Arg(10000)->Arg(100000);

static void BM_MonteCarloShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  const auto perms = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    shapley::CachedGame game(players, [](const std::vector<std::size_t>& c) {
      double v = 0.0;
      for (std::size_t p : c) v += static_cast<double>(p + 1);
      return v / 100.0;
    });
    benchmark::DoNotOptimize(shapley::monte_carlo_shapley(game, perms, rng));
  }
}
BENCHMARK(BM_MonteCarloShapley)->Args({6, 8})->Args({10, 8})->Args({20, 10});

static void BM_ExactShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    shapley::CachedGame game(players, [](const std::vector<std::size_t>& c) {
      double v = 0.0;
      for (std::size_t p : c) v += static_cast<double>(p + 1);
      return v / 100.0;
    });
    benchmark::DoNotOptimize(shapley::exact_shapley(game));
  }
}
BENCHMARK(BM_ExactShapley)->Arg(4)->Arg(8)->Arg(12);

static void BM_MinNormQp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<std::vector<float>> grads(n, std::vector<float>(512));
  for (auto& g : grads) rng.fill_normal(g, 0.0, 1.0);
  optim::MinNormSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(grads));
  }
}
BENCHMARK(BM_MinNormQp)->Arg(5)->Arg(10)->Arg(20);

static void BM_GossipMix(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto topo = graph::Topology::make(graph::TopologyKind::kRing, m);
  const auto w = graph::MixingMatrix::metropolis(topo);
  std::vector<double> x(m, 1.0);
  x[0] = static_cast<double>(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = w.apply(x));
  }
}
BENCHMARK(BM_GossipMix)->Arg(10)->Arg(50)->Arg(200);

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"out", "reps", "threads", "gbench"});
  const int rc = run_kernel_sweep(args);
  if (rc != 0) return rc;
  if (args.get_bool("gbench", false)) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
