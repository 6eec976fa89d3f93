// S-KER differential tests: blocked-vs-naive agreement for the GEMM family
// (bit-identical — the blocked kernels preserve the naive accumulation order)
// and the im2col convolution (tight tolerance — the reduction associates
// differently), NaN/Inf propagation regressions for the removed zero-skip
// shortcuts, and the intra-op determinism contract (bit-identical results at
// any --threads width, including a full PDSL round loop on the blocked
// backend with a CNN model). The lane-parallel blocked sgemm_transpose_b is
// also checked on order-sensitive (cancelling) inputs, with NaN/Inf at every
// panel lane offset, and against canaries past C and NaN rows past A and B,
// so a padded lane or row whose result reaches C shows up.
//
// S-VEC additions: randomized-shape fuzz of the vectorized tier against naive
// within the documented tolerance band (plus ragged tails, unit/empty dims,
// NaN/Inf propagation), bit-stability of the vectorized tier across --threads
// widths and across reruns, and table-driven unit tests pinning the
// resolve_backend() auto-dispatch thresholds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "kernels/backend.hpp"
#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "nn/conv2d.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

using namespace pdsl;

namespace {

/// Restores the process-wide backend and width the test mutated.
class KernelEnvGuard {
 public:
  KernelEnvGuard() : prev_(kernels::backend()) {}
  ~KernelEnvGuard() {
    kernels::set_backend(prev_);
    runtime::set_global_threads(1);
  }

 private:
  kernels::Backend prev_;
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}

struct GemmShape {
  std::size_t m, k, n;
};

// Odd shapes on purpose: unit dims hit the register-tile remainders, 17/13/19
// straddle the blocking, 0 exercises the empty range, 64s hit full tiles.
const std::vector<GemmShape> kShapes = {
    {1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {4, 6, 1}, {2, 3, 2},
    {17, 13, 19}, {32, 64, 32}, {64, 64, 64}, {0, 5, 7}, {5, 0, 7}, {5, 7, 0},
};

using RawGemm = void (*)(std::size_t, std::size_t, std::size_t, const float*, const float*,
                         float*, bool);

void expect_backends_bit_identical(RawGemm fn, std::size_t m, std::size_t k, std::size_t n,
                                   std::size_t a_elems, std::size_t b_elems,
                                   std::size_t c_elems, bool accumulate) {
  const auto a = random_vec(a_elems, 11);
  const auto b = random_vec(b_elems, 23);
  const auto seed_c = random_vec(c_elems, 37);
  std::vector<float> c_naive = accumulate ? seed_c : std::vector<float>(c_elems, -7.0f);
  std::vector<float> c_blocked = c_naive;
  kernels::set_backend(kernels::Backend::kNaive);
  fn(m, k, n, a.data(), b.data(), c_naive.data(), accumulate);
  kernels::set_backend(kernels::Backend::kBlocked);
  fn(m, k, n, a.data(), b.data(), c_blocked.data(), accumulate);
  EXPECT_EQ(c_naive, c_blocked) << "m=" << m << " k=" << k << " n=" << n
                                << " accumulate=" << accumulate;
}

}  // namespace

TEST(Kernels, BackendRegistry) {
  KernelEnvGuard guard;
  EXPECT_EQ(kernels::backend_from_string("naive"), kernels::Backend::kNaive);
  EXPECT_EQ(kernels::backend_from_string("blocked"), kernels::Backend::kBlocked);
  EXPECT_EQ(kernels::backend_from_string("vectorized"), kernels::Backend::kVectorized);
  EXPECT_EQ(kernels::backend_from_string("auto"), kernels::Backend::kAuto);
  EXPECT_THROW(static_cast<void>(kernels::backend_from_string("fast")), std::invalid_argument);
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked,
                        kernels::Backend::kVectorized, kernels::Backend::kAuto}) {
    kernels::set_backend(be);
    EXPECT_EQ(kernels::backend_from_string(kernels::backend_name(kernels::backend())), be);
  }
}

TEST(Kernels, SgemmBlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm, s.m, s.k, s.n, s.m * s.k, s.k * s.n,
                                    s.m * s.n, acc);
    }
  }
}

TEST(Kernels, SgemmTransposeABlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm_transpose_a, s.m, s.k, s.n, s.m * s.k,
                                    s.m * s.n, s.k * s.n, acc);
    }
  }
}

namespace {

/// Bitwise equality, except that any two NaNs compare equal (which NaN
/// payload an x86 multiply propagates depends on operand order).
bool same_bits_or_both_nan(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

constexpr float kCanary = 12345.0f;

/// C = A(m,n) * B(k,n)^T on `be` into a buffer with a canary tail after
/// C(m,k): padded lanes or rows written back would land there.
std::vector<float> tb_with_canary(kernels::Backend be, std::size_t m, std::size_t n,
                                  std::size_t k, const std::vector<float>& a,
                                  const std::vector<float>& b, bool accumulate) {
  std::vector<float> c = random_vec(m * k, 97);
  c.resize(m * k + 16, kCanary);
  kernels::set_backend(be);
  kernels::sgemm_transpose_b(m, n, k, a.data(), b.data(), c.data(), accumulate);
  return c;
}

void expect_tb_blocked_matches_naive(std::size_t m, std::size_t n, std::size_t k,
                                     const std::vector<float>& a, const std::vector<float>& b,
                                     const std::string& what) {
  for (const bool acc : {false, true}) {
    const auto want = tb_with_canary(kernels::Backend::kNaive, m, n, k, a, b, acc);
    const auto got = tb_with_canary(kernels::Backend::kBlocked, m, n, k, a, b, acc);
    for (std::size_t e = 0; e < got.size(); ++e) {
      ASSERT_TRUE(same_bits_or_both_nan(got[e], want[e]))
          << what << " accumulate=" << acc << " element " << e << ": blocked " << got[e]
          << " naive " << want[e];
    }
    for (std::size_t e = m * k; e < got.size(); ++e) ASSERT_EQ(got[e], kCanary) << what;
  }
}

}  // namespace

TEST(Kernels, SgemmTransposeBBlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  // sgemm_transpose_b(m, n, k): A(m,n), B(k,n), C(m,k) — here (m, depth, cols).
  std::vector<GemmShape> shapes = kShapes;
  // The workload shapes: Linear forward 32x784->32, the stacked Shapley
  // first layer 64x784->64, and the CIFAR conv weight gradients.
  shapes.insert(shapes.end(), {{32, 784, 32}, {64, 784, 64}, {8, 144, 75}, {16, 36, 200}});
  // Panel (8 output columns) and row-tile (3 rows) edges.
  for (const std::size_t cols : {1, 7, 8, 9, 15, 17}) {
    for (std::size_t rows = 1; rows <= 5; ++rows) shapes.push_back({rows, 13, cols});
  }
  for (const auto& s : shapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm_transpose_b, s.m, s.k, s.n, s.m * s.k,
                                    s.n * s.k, s.m * s.n, acc);
    }
    if (s.k < 2) continue;
    // Random data hides a changed summation order: a double sum of <= 784
    // exact products almost always rounds to the same float. Cancelling
    // +-2^40 products at the first and last depth index make each chain's
    // float bits depend on the exact order of the additions in between.
    auto a = random_vec(s.m * s.k, 141);
    auto b = random_vec(s.n * s.k, 143);
    for (std::size_t i = 0; i < s.m; ++i) {
      a[i * s.k] = 0x1p40f;
      a[i * s.k + s.k - 1] = -0x1p40f;
    }
    for (std::size_t j = 0; j < s.n; ++j) b[j * s.k] = b[j * s.k + s.k - 1] = 1.0f;
    expect_tb_blocked_matches_naive(s.m, s.k, s.n, a, b,
                                    "cancelling m=" + std::to_string(s.m) +
                                        " depth=" + std::to_string(s.k) +
                                        " cols=" + std::to_string(s.n));
  }
}

// A NaN or Inf in B row j lands in output column j only, at every lane offset
// of a full panel and of the ragged last panel (k = 17: panels of 8, 8, 1).
// A NaN in A row i poisons exactly row i, through every panel and through the
// padded lanes of the ragged one — which must never be written back.
TEST(Kernels, SgemmTransposeBBlockedPropagatesNanAndInfAtEveryLaneOffset) {
  KernelEnvGuard guard;
  const std::size_t m = 5, n = 11, k = 17;
  for (const float poison : {std::nanf(""), HUGE_VALF, -HUGE_VALF}) {
    for (std::size_t j = 0; j < k; ++j) {
      const auto a = random_vec(m * n, 101);
      auto b = random_vec(k * n, 103);
      b[j * n + 4] = poison;
      expect_tb_blocked_matches_naive(m, n, k, a, b, "B poison col " + std::to_string(j));
      const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, a, b, false);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t jj = 0; jj < k; ++jj) {
          EXPECT_EQ(std::isfinite(c[i * k + jj]), jj != j) << "i=" << i << " j=" << jj;
        }
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      auto a = random_vec(m * n, 107);
      const auto b = random_vec(k * n, 109);
      a[i * n + 7] = poison;
      expect_tb_blocked_matches_naive(m, n, k, a, b, "A poison row " + std::to_string(i));
    }
  }
  // 0 * inf -> NaN in every output.
  const std::vector<float> az(m * n, 0.0f);
  const std::vector<float> binf(k * n, HUGE_VALF);
  const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, az, binf, false);
  for (std::size_t e = 0; e < m * k; ++e) EXPECT_TRUE(std::isnan(c[e])) << e;
}

// NaN rows stored just past the logical end of A and B — the rows a padded
// row tile or lane would pick up if it read past the matrix — must not reach
// any written output: every ragged row/column count matches naive with no
// NaN anywhere.
TEST(Kernels, SgemmTransposeBBlockedIgnoresNanPastTheEdges) {
  KernelEnvGuard guard;
  const std::size_t n = 9;
  for (const std::size_t k : {1, 3, 7, 9, 15, 17}) {
    for (std::size_t m = 1; m <= 5; ++m) {
      auto a = random_vec(m * n, 113);
      auto b = random_vec(k * n, 127);
      a.resize((m + 3) * n, std::nanf(""));
      b.resize((k + 8) * n, std::nanf(""));
      const std::string what = "m=" + std::to_string(m) + " k=" + std::to_string(k);
      expect_tb_blocked_matches_naive(m, n, k, a, b, what);
      const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, a, b, true);
      for (std::size_t e = 0; e < m * k; ++e) ASSERT_TRUE(std::isfinite(c[e])) << what;
    }
  }
}

// The old in-place matmuls skipped the inner loop when an A element was
// exactly 0, silently dropping NaN/Inf propagation from B. Both backends must
// propagate.
TEST(Kernels, MatmulPropagatesNanThroughZeroOperand) {
  KernelEnvGuard guard;
  const float nan = std::nanf("");
  Tensor a(Shape{2, 2});  // all zeros
  Tensor b(Shape{2, 2});
  b.at2(0, 0) = nan;
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked,
                        kernels::Backend::kVectorized}) {
    kernels::set_backend(be);
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at2(0, 0))) << kernels::backend_name(be);
    EXPECT_TRUE(std::isnan(c.at2(1, 0))) << kernels::backend_name(be);
    const Tensor ct = matmul_transpose_a(a, b);
    EXPECT_TRUE(std::isnan(ct.at2(0, 0))) << kernels::backend_name(be);
    const Tensor inf_b = Tensor(Shape{2, 2}, std::vector<float>(4, HUGE_VALF));
    const Tensor ci = matmul(a, inf_b);
    EXPECT_TRUE(std::isnan(ci.at2(0, 0))) << "0 * inf must be NaN, "
                                          << kernels::backend_name(be);
  }
}

TEST(Kernels, ConvBackwardPropagatesNanThroughZeroGrad) {
  KernelEnvGuard guard;
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked,
                        kernels::Backend::kVectorized}) {
    kernels::set_backend(be);
    nn::Conv2D conv(1, 1, 1, 0);
    Rng rng(3);
    conv.init(rng);
    conv.params()[0]->value.fill(std::nanf(""));  // weight = NaN
    Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    (void)conv.forward(x);
    const Tensor zero_grad(Shape{1, 1, 2, 2});
    const Tensor gx = conv.backward(zero_grad);
    // gx += g * w with g == 0, w == NaN: the old skip returned zeros here.
    for (std::size_t i = 0; i < gx.numel(); ++i) {
      EXPECT_TRUE(std::isnan(gx[i])) << kernels::backend_name(be) << " index " << i;
    }
  }
}

TEST(Kernels, Im2colLaysOutPatchesRowMajor) {
  const std::vector<float> x = {1, 2, 3, 4};  // 1 channel, 2x2
  std::vector<float> col(4, -1.0f);
  kernels::im2col(x.data(), 1, 2, 2, 2, 0, col.data());  // k=2, pad=0 -> 1 pixel
  EXPECT_EQ(col, (std::vector<float>{1, 2, 3, 4}));
  // With pad=1 the corner patch sees zeros outside the image.
  std::vector<float> col_pad(4 * 9);
  kernels::im2col(x.data(), 1, 2, 2, 2, 1, col_pad.data());  // oh=ow=3
  // Tap (kr=0,kc=0) row: x[r-1][c-1] over the 3x3 output grid.
  EXPECT_EQ(std::vector<float>(col_pad.begin(), col_pad.begin() + 9),
            (std::vector<float>{0, 0, 0, 0, 1, 2, 0, 3, 4}));
}

TEST(Kernels, Col2imIsAdjointOfIm2col) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the standard adjoint
  // identity; validates the scatter against the gather including padding.
  const std::size_t in_ch = 2, ih = 5, iw = 4, k = 3, pad = 1;
  const std::size_t oh = ih + 2 * pad - k + 1, ow = iw + 2 * pad - k + 1;
  const std::size_t cols = in_ch * k * k * oh * ow;
  const auto x = random_vec(in_ch * ih * iw, 5);
  const auto c = random_vec(cols, 7);
  std::vector<float> gathered(cols);
  kernels::im2col(x.data(), in_ch, ih, iw, k, pad, gathered.data());
  std::vector<float> scattered(x.size(), 0.0f);
  kernels::col2im(c.data(), in_ch, ih, iw, k, pad, scattered.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols; ++i) lhs += static_cast<double>(gathered[i]) * c[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * scattered[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-6);
}

namespace {

struct ConvCase {
  std::size_t batch, in_ch, out_ch, k, pad, ih, iw;
};

// k=1, pad>0, non-square, single-row output, empty batch.
const std::vector<ConvCase> kConvCases = {
    {2, 2, 3, 1, 0, 5, 7},   // 1x1 kernel
    {3, 1, 8, 3, 1, 9, 9},   // MNIST-style "same" conv
    {2, 3, 4, 5, 2, 8, 6},   // CIFAR-style, non-square
    {1, 2, 2, 3, 0, 3, 11},  // oh == 1: single output row
    {2, 1, 2, 3, 2, 1, 1},   // pad > spatial extent
    {0, 1, 2, 3, 1, 4, 4},   // empty batch
};

void run_conv_both_backends(const ConvCase& cc, Tensor* fwd_out, Tensor* gx_out,
                            std::vector<std::vector<float>>* grads,
                            kernels::Backend backend) {
  kernels::set_backend(backend);
  nn::Conv2D conv(cc.in_ch, cc.out_ch, cc.k, cc.pad);
  Rng rng(17);
  conv.init(rng);
  Tensor x(Shape{cc.batch, cc.in_ch, cc.ih, cc.iw},
           random_vec(cc.batch * cc.in_ch * cc.ih * cc.iw, 29));
  const Tensor y = conv.forward(x);
  Tensor gy(y.shape(), random_vec(y.numel(), 31));
  const Tensor gx = conv.backward(gy);
  *fwd_out = y;
  *gx_out = gx;
  grads->clear();
  for (nn::Param* p : conv.params()) grads->push_back(p->grad.vec());
}

}  // namespace

TEST(Kernels, ConvIm2colAgreesWithDirectAcrossShapes) {
  KernelEnvGuard guard;
  for (const auto& cc : kConvCases) {
    Tensor y_naive, gx_naive, y_blocked, gx_blocked;
    std::vector<std::vector<float>> g_naive, g_blocked;
    run_conv_both_backends(cc, &y_naive, &gx_naive, &g_naive, kernels::Backend::kNaive);
    run_conv_both_backends(cc, &y_blocked, &gx_blocked, &g_blocked,
                           kernels::Backend::kBlocked);
    ASSERT_EQ(y_naive.shape(), y_blocked.shape());
    const double tol = 1e-4;
    for (std::size_t i = 0; i < y_naive.numel(); ++i) {
      ASSERT_NEAR(y_naive[i], y_blocked[i], tol) << "forward, k=" << cc.k;
    }
    for (std::size_t i = 0; i < gx_naive.numel(); ++i) {
      ASSERT_NEAR(gx_naive[i], gx_blocked[i], tol) << "grad_input, k=" << cc.k;
    }
    ASSERT_EQ(g_naive.size(), g_blocked.size());
    for (std::size_t p = 0; p < g_naive.size(); ++p) {
      ASSERT_EQ(g_naive[p].size(), g_blocked[p].size());
      for (std::size_t i = 0; i < g_naive[p].size(); ++i) {
        ASSERT_NEAR(g_naive[p][i], g_blocked[p][i], tol) << "param " << p << ", k=" << cc.k;
      }
    }
  }
}

TEST(Kernels, ArenaReusesBuffersAcrossBatches) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kBlocked);
  nn::Conv2D conv(2, 4, 3, 1);
  Rng rng(9);
  conv.init(rng);
  Tensor x(Shape{4, 2, 8, 8}, random_vec(4 * 2 * 8 * 8, 41));
  const Tensor y = conv.forward(x);
  Tensor gy(y.shape(), random_vec(y.numel(), 43));
  (void)conv.backward(gy);
  // Arena test via behavior: repeated forward/backward must not change
  // results (scratch reuse is invisible) — run twice and compare.
  nn::Conv2D conv2(2, 4, 3, 1);
  Rng rng2(9);
  conv2.init(rng2);
  const Tensor y1 = conv2.forward(x);
  const Tensor y2 = conv2.forward(x);
  EXPECT_EQ(y1.vec(), y2.vec());
  EXPECT_EQ(y1.vec(), y.vec());
}

TEST(Kernels, IntraOpGemmBitIdenticalAcrossWidths) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kBlocked);
  const std::size_t m = 37, k = 53, n = 41;
  const auto a = random_vec(m * k, 51);
  const auto b = random_vec(k * n, 53);
  std::vector<std::vector<float>> results;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    runtime::set_global_threads(width);
    std::vector<float> c(m * n);
    kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
    std::vector<float> ct(k * n);
    kernels::sgemm_transpose_a(m, k, n, a.data(), b.data(), ct.data());
    std::vector<float> cb(m * m);
    kernels::sgemm_transpose_b(m, k, m, a.data(), a.data(), cb.data());
    c.insert(c.end(), ct.begin(), ct.end());
    c.insert(c.end(), cb.begin(), cb.end());
    results.push_back(std::move(c));
  }
  EXPECT_EQ(results[0], results[1]);
}

// Intra-op tb at width 4 splits 37 rows into chunks of 10 that pack their
// panels concurrently; rows straddle chunk, row-tile and panel (k = 27: 8, 8,
// 8, 3) boundaries. Every width must give the naive bits.
TEST(Kernels, SgemmTransposeBIntraOpChunksMatchNaiveAcrossWidths) {
  KernelEnvGuard guard;
  const std::size_t m = 37, n = 50, k = 27;
  const auto a = random_vec(m * n, 131);
  const auto b = random_vec(k * n, 137);
  const auto c_seed = random_vec(m * k, 139);
  for (const bool acc : {false, true}) {
    kernels::set_backend(kernels::Backend::kNaive);
    runtime::set_global_threads(1);
    std::vector<float> want = c_seed;
    kernels::sgemm_transpose_b(m, n, k, a.data(), b.data(), want.data(), acc);
    kernels::set_backend(kernels::Backend::kBlocked);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_global_threads(width);
      std::vector<float> got = c_seed;
      kernels::sgemm_transpose_b(m, n, k, a.data(), b.data(), got.data(), acc);
      EXPECT_EQ(got, want) << "width=" << width << " accumulate=" << acc;
    }
  }
}

TEST(Kernels, KernelsInsideParallelForDegradeToSequential) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kBlocked);
  runtime::set_global_threads(4);
  const std::size_t m = 16, k = 8, n = 8;
  const auto a = random_vec(m * k, 61);
  const auto b = random_vec(k * n, 67);
  std::vector<float> reference(m * n);
  kernels::sgemm(m, k, n, a.data(), b.data(), reference.data());
  // From inside a parallel_for body the kernel must not attempt nested
  // parallelism (which throws) and must produce the same bits.
  std::vector<std::vector<float>> per_slot(4, std::vector<float>(m * n));
  runtime::parallel_for(0, 4, 1, [&](std::size_t i) {
    kernels::sgemm(m, k, n, a.data(), b.data(), per_slot[i].data());
  });
  for (const auto& c : per_slot) EXPECT_EQ(c, reference);
}

TEST(Kernels, PdslRoundLoopBitIdenticalAcrossWidthsOnBlockedBackend) {
  KernelEnvGuard guard;
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "mnist_like";
  cfg.model = "mnist_cnn";
  cfg.backend = "blocked";
  cfg.agents = 4;
  cfg.rounds = 2;
  cfg.train_samples = 160;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 10;
  cfg.hp.batch = 8;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.metrics.eval_every = 0;
  cfg.seed = 7;
  cfg.threads = 1;
  const auto seq = core::run_experiment(cfg);
  cfg.threads = 4;
  const auto par = core::run_experiment(cfg);
  ASSERT_EQ(seq.average_model.size(), par.average_model.size());
  EXPECT_EQ(seq.average_model, par.average_model);
  ASSERT_EQ(seq.series.size(), par.series.size());
  for (std::size_t i = 0; i < seq.series.size(); ++i) {
    EXPECT_EQ(seq.series[i].avg_loss, par.series[i].avg_loss);
  }
}

// ---------------------------------------------------------------------------
// S-VEC: the vectorized fast-math tier. Not bit-identical to naive/blocked —
// it reassociates reductions (fixed lanes + fixed fold) and compiles with FMA
// contraction — so the differential contract is a tolerance band:
//   |got - want| <= abs + rel * |want|
// with abs scaled by the reduction depth (absolute error of a reassociated
// float sum grows with the number of terms, and cancellation makes a purely
// relative band meaningless near zero).
// ---------------------------------------------------------------------------

namespace {

void expect_within_band(const std::vector<float>& got, const std::vector<float>& want,
                        std::size_t depth, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const float abs_tol = 1e-5f + 1e-6f * static_cast<float>(depth);
  const float rel_tol = 2e-4f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float band = abs_tol + rel_tol * std::abs(want[i]);
    ASSERT_NEAR(got[i], want[i], band) << what << " element " << i << " depth " << depth;
  }
}

/// Run `fn` under `be` on fresh copies of the inputs and return C.
std::vector<float> run_gemm(RawGemm fn, kernels::Backend be, std::size_t m, std::size_t k,
                            std::size_t n, const std::vector<float>& a,
                            const std::vector<float>& b, const std::vector<float>& c_seed,
                            bool accumulate) {
  std::vector<float> c = c_seed;
  kernels::set_backend(be);
  fn(m, k, n, a.data(), b.data(), c.data(), accumulate);
  return c;
}

struct VecCase {
  const char* name;
  RawGemm fn;
  // (a, b, c) element counts and the reduction depth as functions of (m,k,n).
  std::size_t a_elems, b_elems, c_elems, depth;
};

std::vector<VecCase> vec_cases(std::size_t m, std::size_t k, std::size_t n) {
  return {
      {"sgemm", kernels::sgemm, m * k, k * n, m * n, k},
      {"sgemm_transpose_a", kernels::sgemm_transpose_a, m * k, m * n, k * n, m},
      // sgemm_transpose_b(m, n, k): A(m,n), B(k,n), C(m,k), reduces over n.
      {"sgemm_transpose_b", kernels::sgemm_transpose_b, m * k, n * k, m * n, k},
  };
}

}  // namespace

// Deterministic pseudo-random shape fuzz: every GEMM layout, both accumulate
// modes, shapes drawn to cover full tiles, ragged row/column tails, unit and
// zero dims. The vectorized result must sit inside the band around naive.
TEST(KernelsVec, FuzzRandomShapesWithinBandOfNaive) {
  KernelEnvGuard guard;
  Rng shape_rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Bias toward small shapes but include tile-straddling ones; every 8th
    // trial pins a dimension to 0 or 1 to hit the degenerate paths.
    auto dim = [&](int salt) {
      const auto r = shape_rng.uniform_int(0, 96);
      if (trial % 8 == salt) return static_cast<std::size_t>(trial % 16 == salt ? 0 : 1);
      return static_cast<std::size_t>(r);
    };
    const std::size_t m = dim(0), k = dim(1), n = dim(2);
    for (const auto& vc : vec_cases(m, k, n)) {
      for (const bool acc : {false, true}) {
        const auto a = random_vec(vc.a_elems, 101 + trial);
        const auto b = random_vec(vc.b_elems, 203 + trial);
        const auto c_seed = acc ? random_vec(vc.c_elems, 307 + trial)
                                : std::vector<float>(vc.c_elems, -7.0f);
        const auto want =
            run_gemm(vc.fn, kernels::Backend::kNaive, m, k, n, a, b, c_seed, acc);
        const auto got =
            run_gemm(vc.fn, kernels::Backend::kVectorized, m, k, n, a, b, c_seed, acc);
        expect_within_band(got, want, vc.depth, vc.name);
      }
    }
  }
}

// The fixed shape table (unit dims, tile-straddling 17/13/19, zero dims)
// through the vectorized tier: same band contract, plus the empty-range
// behavior (k == 0 with accumulate=false must still zero C).
TEST(KernelsVec, FixedShapeTableWithinBandOfNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const auto& vc : vec_cases(s.m, s.k, s.n)) {
      for (const bool acc : {false, true}) {
        const auto a = random_vec(vc.a_elems, 11);
        const auto b = random_vec(vc.b_elems, 23);
        const auto c_seed =
            acc ? random_vec(vc.c_elems, 37) : std::vector<float>(vc.c_elems, -7.0f);
        const auto want =
            run_gemm(vc.fn, kernels::Backend::kNaive, s.m, s.k, s.n, a, b, c_seed, acc);
        const auto got = run_gemm(vc.fn, kernels::Backend::kVectorized, s.m, s.k, s.n, a,
                                  b, c_seed, acc);
        expect_within_band(got, want, vc.depth, vc.name);
      }
    }
  }
}

// Determinism contract of the fast-math tier: banded against the reference,
// but bit-identical to ITSELF across reruns and across --threads widths (the
// lane split and reduction tree depend only on the reduction length, and the
// intra-op partition hands out complete output rows).
TEST(KernelsVec, VectorizedBitIdenticalAcrossWidthsAndReruns) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kVectorized);
  const std::size_t m = 37, k = 53, n = 41;
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(k * n, 73);
  std::vector<std::vector<float>> results;
  for (const std::size_t width : {std::size_t{1}, std::size_t{1}, std::size_t{4}}) {
    runtime::set_global_threads(width);
    std::vector<float> c(m * n);
    kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
    std::vector<float> ct(k * n);
    kernels::sgemm_transpose_a(m, k, n, a.data(), b.data(), ct.data());
    std::vector<float> cb(m * m);
    kernels::sgemm_transpose_b(m, k, m, a.data(), a.data(), cb.data());
    c.insert(c.end(), ct.begin(), ct.end());
    c.insert(c.end(), cb.begin(), cb.end());
    results.push_back(std::move(c));
  }
  EXPECT_EQ(results[0], results[1]) << "rerun at width 1";
  EXPECT_EQ(results[0], results[2]) << "width 1 vs width 4";
}

// Inf * 0 and NaN must survive the lane fold and the register tiles: seed a
// single pathological element at every alignment class within the first
// kVecColTile columns and check it lands in (exactly) the affected outputs.
TEST(KernelsVec, VectorizedPropagatesNanAndInfAtEveryLaneOffset) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kVectorized);
  const std::size_t m = 5, k = 9, n = 11;
  for (std::size_t poison_col = 0; poison_col < n; ++poison_col) {
    auto a = random_vec(m * k, 81);
    auto b = random_vec(k * n, 83);
    b[3 * n + poison_col] = std::nanf("");
    std::vector<float> c(m * n);
    kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(std::isnan(c[i * n + j]), j == poison_col)
            << "i=" << i << " j=" << j << " poison_col=" << poison_col;
      }
    }
  }
  // 0 * inf -> NaN through the dot-product kernel (no zero-skip shortcuts).
  std::vector<float> az(4 * 8, 0.0f);
  std::vector<float> binf(4 * 8, HUGE_VALF);
  std::vector<float> cd(4 * 4);
  kernels::sgemm_transpose_b(4, 8, 4, az.data(), binf.data(), cd.data(), false);
  for (const float v : cd) EXPECT_TRUE(std::isnan(v));
}

// Conv2D on the vectorized backend follows the im2col path; agreement with
// the naive direct convolution is banded like the underlying GEMMs.
TEST(KernelsVec, ConvVectorizedAgreesWithDirectWithinBand) {
  KernelEnvGuard guard;
  for (const auto& cc : kConvCases) {
    Tensor y_naive, gx_naive, y_vec, gx_vec;
    std::vector<std::vector<float>> g_naive, g_vec;
    run_conv_both_backends(cc, &y_naive, &gx_naive, &g_naive, kernels::Backend::kNaive);
    run_conv_both_backends(cc, &y_vec, &gx_vec, &g_vec, kernels::Backend::kVectorized);
    ASSERT_EQ(y_naive.shape(), y_vec.shape());
    const std::size_t depth = cc.in_ch * cc.k * cc.k;
    expect_within_band(y_vec.vec(), y_naive.vec(), depth, "conv forward");
    expect_within_band(gx_vec.vec(), gx_naive.vec(), depth, "conv grad_input");
    ASSERT_EQ(g_naive.size(), g_vec.size());
    for (std::size_t p = 0; p < g_naive.size(); ++p) {
      expect_within_band(g_vec[p], g_naive[p], cc.batch * cc.ih * cc.iw, "conv param grad");
    }
  }
}

// ---------------------------------------------------------------------------
// resolve_backend() auto-dispatch: table-driven boundary pins. The thresholds
// are part of the public contract (backend.hpp documents them); moving one is
// an intentional change that must edit this table.
// ---------------------------------------------------------------------------

TEST(KernelsVec, ResolveBackendPinnedBackendsPassThrough) {
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked,
                        kernels::Backend::kVectorized}) {
    // Pinning wins regardless of shape, including degenerate ones.
    EXPECT_EQ(kernels::resolve_backend(be, 0, 0, 0), be);
    EXPECT_EQ(kernels::resolve_backend(be, 1, 1, 1), be);
    EXPECT_EQ(kernels::resolve_backend(be, 1000, 1000, 1000), be);
  }
}

TEST(KernelsVec, ResolveBackendAutoThresholdTable) {
  using kernels::Backend;
  const auto resolve = [](std::size_t rows, std::size_t depth, std::size_t cols) {
    return kernels::resolve_backend(Backend::kAuto, rows, depth, cols);
  };
  struct Row {
    std::size_t rows, depth, cols;
    Backend want;
    const char* why;
  };
  static_assert(kernels::kAutoNaiveMaxFlops == 4096, "update the table below");
  static_assert(kernels::kAutoVecMinDepth == 16, "update the table below");
  static_assert(kernels::kAutoVecMinCols == 8, "update the table below");
  const Row table[] = {
      // Tiny-flops boundary: <= 4096 multiply-adds goes naive.
      {16, 16, 16, Backend::kNaive, "16*16*16 == 4096: at the boundary, naive"},
      {16, 16, 17, Backend::kVectorized, "4352 flops, deep+wide enough for vec"},
      {1, 4096, 1, Backend::kNaive, "flops == threshold regardless of aspect"},
      {0, 100, 100, Backend::kNaive, "zero rows: empty call, naive"},
      {100, 0, 100, Backend::kNaive, "zero depth: zero-fill only, naive"},
      {100, 100, 0, Backend::kNaive, "zero cols: empty call, naive"},
      // Depth boundary at kAutoVecMinDepth = 16.
      {100, 15, 100, Backend::kBlocked, "depth 15: one short of the vec floor"},
      {100, 16, 100, Backend::kVectorized, "depth 16: at the vec floor"},
      // Cols boundary at kAutoVecMinCols = 8.
      {100, 100, 7, Backend::kBlocked, "cols 7: one short of the vec floor"},
      {100, 100, 8, Backend::kVectorized, "cols 8: at the vec floor"},
      // Big-but-shallow and big-but-narrow stay blocked (bit-identical tier).
      {4096, 8, 512, Backend::kBlocked, "shallow reduction"},
      {4096, 512, 4, Backend::kBlocked, "narrow output"},
      // The canonical model shapes all go vectorized.
      {32, 144, 10, Backend::kVectorized, "MNIST FC batch GEMM"},
      {32, 256, 64, Backend::kVectorized, "CIFAR FC1 batch GEMM"},
      {256, 256, 256, Backend::kVectorized, "square GEMM"},
  };
  for (const auto& row : table) {
    EXPECT_EQ(resolve(row.rows, row.depth, row.cols), row.want)
        << row.why << " (rows=" << row.rows << " depth=" << row.depth
        << " cols=" << row.cols << ")";
  }
}

// Auto must produce the same bits as whatever backend it resolves to — the
// dispatcher adds no numeric behavior of its own.
TEST(KernelsVec, AutoMatchesResolvedBackendBitwise) {
  KernelEnvGuard guard;
  struct Shape {
    std::size_t m, k, n;
  };
  for (const auto& s : {Shape{8, 8, 8}, Shape{40, 15, 40}, Shape{40, 32, 40}}) {
    const auto a = random_vec(s.m * s.k, 91);
    const auto b = random_vec(s.k * s.n, 93);
    const std::vector<float> c_seed(s.m * s.n, 0.0f);
    const auto resolved =
        kernels::resolve_backend(kernels::Backend::kAuto, s.m, s.k, s.n);
    const auto want =
        run_gemm(kernels::sgemm, resolved, s.m, s.k, s.n, a, b, c_seed, false);
    const auto got = run_gemm(kernels::sgemm, kernels::Backend::kAuto, s.m, s.k, s.n, a,
                              b, c_seed, false);
    EXPECT_EQ(got, want) << "m=" << s.m << " k=" << s.k << " n=" << s.n << " resolved to "
                         << kernels::backend_name(resolved);
  }
}
