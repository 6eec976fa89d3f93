// Microbenchmarks for the hot kernels underneath the experiments. Two parts:
//
//  1. The S-KER naive-vs-blocked sweep (default): GEMM,
//     sgemm_transpose_b and convolution timings at the MNIST-CNN, CIFAR-CNN
//     and benchmark-workload shapes, written as a speedup table to
//     BENCH_kernels.json (override with --out). Acceptance signals, all
//     single-thread and none waivable: the blocked conv forward+backward
//     speedup at the CIFAR-CNN shapes (S-KER), the blocked tb speedup over
//     naive at every tb shape, gated at >= 2.4x, the blocked sgemm and
//     sgemm_transpose_a speedup over naive at the CIFAR-CNN conv GEMM
//     shapes, gated at >= 1.3x. A `dp_noise` row
//     times dp::add_gaussian_noise against the per-coordinate Rng::normal
//     loop on one 25,450-float gradient, gated at >= 3x. Every blocked
//     timing is also taken at each ISA level the host runs (blocked_ms is
//     the widest, which the default dispatch picks), and an mlp_l1_ta row
//     times the Table I MLP's first-layer weight gradient.
//     Flags: --out <path> --reps <n>
//
//  2. The original google-benchmark suite (matmul, model gradients, DP
//     mechanism, Shapley, QP, gossip): pass --gbench to run it (with
//     google-benchmark's default options).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
#include "kernels/cnn.hpp"
#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/model_zoo.hpp"
#include "optim/qp.hpp"
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

/// The ISA levels this host runs, baseline first: the blocked kernels are
/// timed at each.
std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> levels;
  for (const auto level : {kernels::Isa::kBaseline, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (level <= kernels::host_isa()) levels.push_back(level);
  }
  return levels;
}

struct SweepRow {
  std::string name;
  std::string kind;   // "gemm" | "conv"
  std::string shape;  // human-readable
  double naive_ms = 0.0;
  double blocked_ms = 0.0;  // at the widest level, which the default dispatch runs
  std::vector<double> blocked_isa_ms;  // per level of supported_isas()
};

/// Fills the row's timings: `fn` on the naive backend and on the blocked
/// backend at every supported ISA level.
template <typename F>
void time_backends(SweepRow& row, std::size_t reps, F&& fn) {
  kernels::set_backend(kernels::Backend::kNaive);
  row.naive_ms = time_ms(reps, fn);
  kernels::set_backend(kernels::Backend::kBlocked);
  for (const auto level : supported_isas()) {
    kernels::set_isa_cap(level);
    row.blocked_isa_ms.push_back(time_ms(reps, fn));
  }
  kernels::set_isa_cap(kernels::Isa::kAvx512);
  row.blocked_ms = row.blocked_isa_ms.back();
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
// first-layer GEMM of linear-mode Shapley scoring (2 and 10 members), and
// the per-image conv weight gradients of the CIFAR CNN (dW += dY * cols^T)
// at 12x12 and at the paper's 32x32. Every row with m < k runs in the
// transposed orientation (lanes over A's rows).
struct TbShape {
  const char* name;
  std::size_t m, n, k;
  bool accumulate;
};

const TbShape kTbShapes[] = {
    {"tb_linear_fwd", 32, 784, 32, false},       // Linear(784 -> 32), batch 32
    {"tb_shapley_stack", 64, 784, 64, true},     // validation batch 64, 2 models' W
    {"tb_cifar_dw_l1", 8, 144, 75, true},        // conv1 3->8 k5, 12x12
    {"tb_cifar_dw_l2", 16, 36, 200, true},       // conv2 8->16 k5, 6x6
    {"tb_shapley_stack10", 64, 784, 320, true},  // 10 members' W
    {"tb_cifar_dw_l1_32", 8, 1024, 75, true},    // conv1 3->8 k5, 32x32
    {"tb_cifar_dw_l2_32", 16, 256, 200, true},   // conv2 8->16 k5, 16x16
};

// sgemm and sgemm_transpose_a (m, k, n) at the CIFAR CNN's conv GEMMs: the
// per-image forward Y = W * cols of conv1 (8x75x144 at 12x12 inputs,
// 8x75x1024 at 32x32) and conv2 (16x200x36, 16x200x256). sgemm_transpose_a
// runs the same call arguments; 16x200x36 is conv2's column gradient
// dcol = W^T * dY at 12x12.
const GemmShape kConvGemmShapes[] = {
    {"sgemm_cifar_l1_12", 8, 75, 144},
    {"sgemm_cifar_l2_12", 16, 200, 36},
    {"sgemm_cifar_l1_32", 8, 75, 1024},
    {"sgemm_cifar_l2_32", 16, 200, 256},
};

// The Table I MLP's first-layer weight gradient dW = dY^T * X, batch 32:
// sgemm_transpose_a at (32, 32, 784). Not gated; timed per ISA level like
// every row.
const GemmShape kMlpGemmShapes[] = {
    {"mlp_l1", 32, 32, 784},
};

const ConvShape kConvShapes[] = {
    {"conv_mnist_l1", 32, 1, 8, 3, 1, 14},   // make_mnist_cnn(14): conv1
    {"conv_mnist_l2", 32, 8, 16, 3, 1, 7},   // conv2 after pool
    {"conv_cifar_l1", 32, 3, 8, 5, 2, 16},   // make_cifar_cnn(16): conv1
    {"conv_cifar_l2", 32, 8, 16, 5, 2, 8},   // conv2 after pool
};

/// One row of sgemm (transpose_a = false) or sgemm_transpose_a at (m, k, n);
/// a transpose_a row is named "<shape name>_ta".
SweepRow sweep_gemm(const GemmShape& s, std::size_t reps, bool transpose_a = false) {
  const auto a = random_vec(s.m * s.k, 1);
  const auto b = random_vec((transpose_a ? s.m : s.k) * s.n, 2);
  std::vector<float> c((transpose_a ? s.k : s.m) * s.n);
  auto call = [&] {
    if (transpose_a) {
      kernels::sgemm_transpose_a(s.m, s.k, s.n, a.data(), b.data(), c.data());
    } else {
      kernels::sgemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
    }
    benchmark::DoNotOptimize(c[0]);
  };
  SweepRow row;
  row.name = std::string(s.name) + (transpose_a ? "_ta" : "");
  row.kind = transpose_a ? "gemm_ta" : "gemm";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zux%zux%zu", s.m, s.k, s.n);
  row.shape = buf;
  time_backends(row, reps, call);
  return row;
}

SweepRow sweep_tb(const TbShape& s, std::size_t reps) {
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
  time_backends(row, reps, call);
  return row;
}

SweepRow sweep_conv(const ConvShape& s, std::size_t reps) {
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
  time_backends(row, reps, step);
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

// ---------------------------------------------------------------------------
// CNN layer kernels against the code they replaced, at each ISA level:
// kernels::conv2d_forward against im2col + sgemm seeded with the bias,
// kernels::maxpool2x2 against the scalar 2x2 loop, and
// kernels::relu_maxpool2x2 against nn::ReLU::forward then that loop. Each
// row checks that both give the same bytes and reports microseconds per
// batch. No speed gate: such ratios swing by up to 2x between runs of
// unchanged code.
// ---------------------------------------------------------------------------

struct LayerShape {
  const char* name;
  std::size_t batch, in_ch, out_ch, k, pad, image;
};

// conv1 and conv2 of make_mnist_cnn(14) and of make_cifar_cnn at the
// benchmark workloads' 12x12 and the paper's 32x32; the pools take each
// conv's output.
const LayerShape kLayerShapes[] = {
    {"mnist14_l1", 32, 1, 8, 3, 1, 14},  {"mnist14_l2", 32, 8, 16, 3, 1, 7},
    {"cifar12_l1", 32, 3, 8, 5, 2, 12},  {"cifar12_l2", 32, 8, 16, 5, 2, 6},
    {"cifar32_l1", 32, 3, 8, 5, 2, 32},  {"cifar32_l2", 32, 8, 16, 5, 2, 16},
};

struct LayerRow {
  std::string name, shape;
  std::vector<double> ref_us, new_us;  // per level of supported_isas()
  bool identical = true;
};

/// best, at = v, idx if v > best, with masks rather than a branch: the
/// 2x2 loop MaxPool2D ran before kernels::maxpool2x2, argmax as size_t.
inline void take_if_greater(float v, std::size_t idx, float& best, std::size_t& at) {
  const auto gt = static_cast<std::uint32_t>(v > best);
  const std::uint32_t keep_v = 0u - gt;
  best = std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & keep_v) |
                              (std::bit_cast<std::uint32_t>(best) & ~keep_v));
  at += (idx - at) & (std::size_t{0} - gt);
}

void reference_pool(const float* x, std::size_t planes, std::size_t ih, std::size_t iw,
                    float* y, std::size_t* arg) {
  std::size_t o = 0;
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t r = 0; r < ih / 2; ++r) {
      const std::size_t base = (p * ih + 2 * r) * iw;
      const float* row0 = x + base;
      const float* row1 = row0 + iw;
      for (std::size_t c = 0; c < iw / 2; ++c, ++o) {
        float best = row0[2 * c];
        std::size_t at = base + 2 * c;
        take_if_greater(row0[2 * c + 1], base + 2 * c + 1, best, at);
        take_if_greater(row1[2 * c], base + iw + 2 * c, best, at);
        take_if_greater(row1[2 * c + 1], base + iw + 2 * c + 1, best, at);
        y[o] = best;
        arg[o] = at;
      }
    }
  }
}

/// Times ref and fresh at every supported level; each writes `out_bytes`
/// bytes at ref_out and new_out, which must match at every level.
template <typename Ref, typename New>
void time_layer(LayerRow& row, std::size_t reps, Ref&& ref, New&& fresh, const void* ref_out,
                const void* new_out, std::size_t out_bytes) {
  for (const auto level : supported_isas()) {
    kernels::set_isa_cap(level);
    row.ref_us.push_back(1000.0 * time_ms(reps, ref));
    row.new_us.push_back(1000.0 * time_ms(reps, fresh));
    row.identical = row.identical && std::memcmp(ref_out, new_out, out_bytes) == 0;
  }
  kernels::set_isa_cap(kernels::Isa::kAvx512);
}

std::vector<LayerRow> sweep_layers(std::size_t reps) {
  std::vector<LayerRow> rows;
  for (const auto& s : kLayerShapes) {
    const std::size_t ih = s.image, oh = ih + 2 * s.pad - s.k + 1;
    const std::size_t taps = s.in_ch * s.k * s.k, npix = oh * oh;
    const auto x = random_vec(s.batch * s.in_ch * ih * ih, 6);
    const auto w = random_vec(s.out_ch * taps, 7);
    const auto bias = random_vec(s.out_ch, 8);
    const std::size_t out_n = s.batch * s.out_ch * npix;
    std::vector<float> col(taps * npix), y_ref(out_n), y_new(out_n);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "b%zu %zux%zux%zu k%zu p%zu -> %zuch", s.batch, s.in_ch, ih,
                  ih, s.k, s.pad, s.out_ch);
    LayerRow conv{std::string("conv_") + s.name, buf, {}, {}, true};
    time_layer(
        conv, reps,
        [&] {
          for (std::size_t b = 0; b < s.batch; ++b) {
            kernels::im2col(x.data() + b * s.in_ch * ih * ih, s.in_ch, ih, ih, s.k, s.pad,
                            col.data());
            float* yb = y_ref.data() + b * s.out_ch * npix;
            for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
              std::fill(yb + oc * npix, yb + (oc + 1) * npix, bias[oc]);
            }
            kernels::sgemm(s.out_ch, taps, npix, w.data(), col.data(), yb, true);
          }
          benchmark::DoNotOptimize(y_ref.data());
        },
        [&] {
          kernels::conv2d_forward(x.data(), s.batch, s.in_ch, ih, ih, w.data(), bias.data(),
                                  s.out_ch, s.k, s.pad, y_new.data());
          benchmark::DoNotOptimize(y_new.data());
        },
        y_ref.data(), y_new.data(), out_n * sizeof(float));
    rows.push_back(conv);

    // The pools run on the conv output, as in the model.
    const std::size_t planes = s.batch * s.out_ch, pooled = planes * (oh / 2) * (oh / 2);
    std::vector<float> p_ref(pooled), p_new(pooled);
    std::vector<std::size_t> a_ref(pooled);
    std::vector<std::uint32_t> a_new(pooled);
    std::snprintf(buf, sizeof(buf), "%zux%zux%zu", planes, oh, oh);
    LayerRow pool{std::string("pool_") + s.name, buf, {}, {}, true};
    time_layer(
        pool, reps,
        [&] {
          reference_pool(y_ref.data(), planes, oh, oh, p_ref.data(), a_ref.data());
          benchmark::DoNotOptimize(p_ref.data());
        },
        [&] {
          kernels::maxpool2x2(y_ref.data(), planes, oh, oh, p_new.data(), a_new.data());
          benchmark::DoNotOptimize(p_new.data());
        },
        p_ref.data(), p_new.data(), pooled * sizeof(float));
    pool.identical = pool.identical && std::equal(a_ref.begin(), a_ref.end(), a_new.begin());
    rows.push_back(pool);

    // The reference is the inference path's old pair of passes: ReLU (with
    // its backward mask) in place, then the pool. ReLU is idempotent, so
    // every rep sees the same input.
    LayerRow relu_pool{std::string("relupool_") + s.name, buf, {}, {}, true};
    nn::ReLU relu;
    Tensor relu_io(Shape{planes, 1, oh, oh}, y_ref);
    time_layer(
        relu_pool, reps,
        [&] {
          relu_io = relu.forward(std::move(relu_io));
          reference_pool(relu_io.data(), planes, oh, oh, p_ref.data(), a_ref.data());
          benchmark::DoNotOptimize(p_ref.data());
        },
        [&] {
          kernels::relu_maxpool2x2(y_ref.data(), planes, oh, oh, p_new.data());
          benchmark::DoNotOptimize(p_new.data());
        },
        p_ref.data(), p_new.data(), pooled * sizeof(float));
    rows.push_back(relu_pool);
  }
  return rows;
}

int run_kernel_sweep(const CliArgs& args) {
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 20));
  const kernels::Backend entry_backend = kernels::backend();

  const std::vector<kernels::Isa> levels = supported_isas();

  std::printf("==== bench_micro_kernels: naive vs blocked (reps=%zu) ====\n", reps);
  std::printf("blocked runs at the widest level (%s); blk_<level> columns time each level\n",
              kernels::isa_name(kernels::host_isa()));
  std::printf("%-16s %-24s %12s %12s %9s", "kernel", "shape", "naive_ms", "blocked_ms",
              "blk_spd");
  for (const auto level : levels) {
    std::printf(" %12s", ("blk_" + std::string(kernels::isa_name(level))).c_str());
  }
  std::printf("\n");

  std::vector<SweepRow> rows;
  for (const auto& s : kGemmShapes) rows.push_back(sweep_gemm(s, reps));
  for (const bool transpose_a : {false, true}) {
    for (const auto& s : kConvGemmShapes) rows.push_back(sweep_gemm(s, reps, transpose_a));
  }
  for (const auto& s : kMlpGemmShapes) rows.push_back(sweep_gemm(s, reps, true));
  for (const auto& s : kTbShapes) rows.push_back(sweep_tb(s, reps));
  for (const auto& s : kConvShapes) rows.push_back(sweep_conv(s, reps));
  kernels::set_backend(entry_backend);

  pdsl::bench::BenchEnvelope env("kernels", "micro");
  {
    pdsl::json::Object c;
    c["reps"] = reps;
    c["conv_unit"] = std::string("forward+backward per batch");
    env.set_config(std::move(c));
  }

  double cifar_conv_min_speedup = 1e30;
  double tb_blocked_min_speedup = 1e30;
  double sgemm_blocked_min_speedup = 1e30;
  for (const auto& r : rows) {
    const double speedup = r.blocked_ms > 0 ? r.naive_ms / r.blocked_ms : 0.0;
    if (r.name.rfind("conv_cifar", 0) == 0) {
      cifar_conv_min_speedup = std::min(cifar_conv_min_speedup, speedup);
    }
    if (r.kind == "gemm_tb") tb_blocked_min_speedup = std::min(tb_blocked_min_speedup, speedup);
    if (r.name.rfind("sgemm_", 0) == 0) {
      sgemm_blocked_min_speedup = std::min(sgemm_blocked_min_speedup, speedup);
    }
    std::printf("%-16s %-24s %12.4f %12.4f %8.2fx", r.name.c_str(), r.shape.c_str(),
                r.naive_ms, r.blocked_ms, speedup);
    for (const double ms : r.blocked_isa_ms) std::printf(" %12.4f", ms);
    std::printf("\n");
    env.add_metric_sample(r.name + ".naive_ms", "ms", r.naive_ms);
    env.add_metric_sample(r.name + ".blocked_ms", "ms", r.blocked_ms);
    pdsl::json::Object by_isa;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const std::string isa = kernels::isa_name(levels[l]);
      env.add_metric_sample(r.name + ".blocked_" + isa + "_ms", "ms", r.blocked_isa_ms[l]);
      by_isa[isa] = r.blocked_isa_ms[l];
    }
    env.add_metric_sample(r.name + ".speedup", "x", speedup);
    pdsl::json::Object o;
    o["name"] = r.name;
    o["kind"] = r.kind;
    o["shape"] = r.shape;
    o["naive_ms"] = r.naive_ms;
    o["blocked_ms"] = r.blocked_ms;
    o["blocked_isa_ms"] = pdsl::json::Value(std::move(by_isa));
    o["speedup"] = speedup;
    env.add_run(std::move(o));
  }
  env.add_metric_sample("cifar_conv_min_speedup", "x", cifar_conv_min_speedup);
  env.add_metric_sample("tb_blocked_min_speedup", "x", tb_blocked_min_speedup);
  env.add_metric_sample("sgemm_blocked_min_speedup", "x", sgemm_blocked_min_speedup);

  const std::vector<LayerRow> layer_rows = sweep_layers(reps);
  std::printf("\nCNN layer kernels, us per batch: ref = the replaced code, new = kernels::\n");
  std::printf("%-20s %-26s", "layer", "shape");
  for (const auto level : levels) {
    std::printf(" %10s %10s", ("ref_" + std::string(kernels::isa_name(level))).c_str(),
                ("new_" + std::string(kernels::isa_name(level))).c_str());
  }
  std::printf("  bits\n");
  bool layers_identical = true;
  for (const auto& r : layer_rows) {
    layers_identical = layers_identical && r.identical;
    std::printf("%-20s %-26s", r.name.c_str(), r.shape.c_str());
    pdsl::json::Object by_isa;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const std::string isa = kernels::isa_name(levels[l]);
      std::printf(" %10.2f %10.2f", r.ref_us[l], r.new_us[l]);
      env.add_metric_sample(r.name + ".ref_" + isa + "_us", "us", r.ref_us[l]);
      env.add_metric_sample(r.name + ".new_" + isa + "_us", "us", r.new_us[l]);
      pdsl::json::Object pair;
      pair["ref_us"] = r.ref_us[l];
      pair["new_us"] = r.new_us[l];
      by_isa[isa] = pdsl::json::Value(std::move(pair));
    }
    std::printf("  %s\n", r.identical ? "identical" : "DIFFER");
    pdsl::json::Object o;
    o["name"] = r.name;
    o["kind"] = std::string("layer");
    o["shape"] = r.shape;
    o["isa_us"] = pdsl::json::Value(std::move(by_isa));
    o["identical"] = r.identical;
    env.add_run(std::move(o));
  }

  const NoiseRow noise = time_dp_noise(reps);
  const double noise_speedup = noise.ziggurat_ms > 0 ? noise.reference_ms / noise.ziggurat_ms : 0.0;
  std::printf("%-16s %-24s %12.4f %12.4f %8.2fx  (naive = Rng::normal loop, blocked = ziggurat)\n",
              "dp_noise", "25450 floats", noise.reference_ms, noise.ziggurat_ms, noise_speedup);
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
  // count does not enter, and none waivable. S-KER: blocked conv must clear
  // 2x over naive at the CIFAR-CNN shapes, the blocked sgemm_transpose_b
  // must clear 2.4x over naive at every tb shape, and the blocked sgemm and
  // sgemm_transpose_a must clear 1.3x over naive at every conv GEMM shape.
  // DP noise: the ziggurat must clear 3x over the Rng::normal loop.
  const bool conv_gate_met = cifar_conv_min_speedup >= 2.0;
  const bool tb_gate_met = tb_blocked_min_speedup >= 2.4;
  const bool sgemm_gate_met = sgemm_blocked_min_speedup >= 1.3;
  const bool noise_gate_met = noise_speedup >= 3.0;
  pdsl::json::Object gate;
  gate["cifar_conv_min_speedup"] = cifar_conv_min_speedup;
  gate["cifar_conv_threshold"] = 2.0;
  gate["tb_blocked_min_speedup"] = tb_blocked_min_speedup;
  gate["tb_blocked_threshold"] = 2.4;
  gate["sgemm_blocked_min_speedup"] = sgemm_blocked_min_speedup;
  gate["sgemm_blocked_threshold"] = 1.3;
  gate["dp_noise_speedup"] = noise_speedup;
  gate["dp_noise_threshold"] = 3.0;
  gate["passed"] = conv_gate_met && tb_gate_met && sgemm_gate_met && noise_gate_met;
  env.set_acceptance(std::move(gate));
  if (!env.write(out_path)) return 1;
  std::printf("cifar conv min speedup: %.2fx (gate >=2x: %s)\n", cifar_conv_min_speedup,
              conv_gate_met ? "passed" : "FAILED");
  std::printf("tb blocked min speedup: %.2fx (gate >=2.4x: %s)\n", tb_blocked_min_speedup,
              tb_gate_met ? "passed" : "FAILED");
  std::printf("sgemm blocked min speedup: %.2fx (gate >=1.3x: %s)\n", sgemm_blocked_min_speedup,
              sgemm_gate_met ? "passed" : "FAILED");
  std::printf("dp noise ziggurat speedup: %.2fx (gate >=3x: %s)\n", noise_speedup,
              noise_gate_met ? "passed" : "FAILED");
  if (!layers_identical) {
    std::fprintf(stderr, "bench_micro_kernels: a CNN layer kernel differs from its reference\n");
    return 1;
  }
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

/// Additive test game v(S) = sum over members p of (p + 1) / 100.
static std::vector<double> additive_values(const std::vector<std::uint64_t>& masks) {
  std::vector<double> out;
  out.reserve(masks.size());
  for (const std::uint64_t mask : masks) {
    double v = 0.0;
    for (std::size_t p : shapley::Game::members(mask)) v += static_cast<double>(p + 1);
    out.push_back(v / 100.0);
  }
  return out;
}

static void BM_MonteCarloShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  const auto perms = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    shapley::Game game(players, additive_values);
    benchmark::DoNotOptimize(shapley::monte_carlo_shapley(game, perms, rng));
  }
}
BENCHMARK(BM_MonteCarloShapley)->Args({6, 8})->Args({10, 8})->Args({20, 10});

static void BM_ExactShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    shapley::Game game(players, additive_values);
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
  const graph::Metropolis w(graph::Graph::ring(m));
  std::vector<double> x(m, 1.0);
  x[0] = static_cast<double>(m);
  for (auto _ : state) {
    std::vector<double> y(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j : w.support(i)) y[i] += w(i, j) * x[j];
    }
    benchmark::DoNotOptimize(x = std::move(y));
  }
}
BENCHMARK(BM_GossipMix)->Arg(10)->Arg(50)->Arg(200);

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"out", "reps", "gbench"});
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
