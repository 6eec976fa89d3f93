// S-KER differential tests: blocked-vs-naive agreement for the GEMM family
// (bit-identical — the blocked kernels preserve the naive accumulation order)
// and the im2col convolution (tight tolerance — the reduction associates
// differently), NaN/Inf propagation regressions for the removed zero-skip
// shortcuts, and the concurrency contract (kernels called from concurrent
// parallel_for bodies give the sequential bits, and a full PDSL round loop on
// the blocked backend with a CNN model is bit-identical at any --threads
// width). The register-tiled blocked kernels (the 4x12 float tile of sgemm
// and sgemm_transpose_a, the lane-parallel sgemm_transpose_b) are also
// checked at the workload shapes and every tile edge, on order-sensitive
// (cancelling) inputs, with NaN/Inf at every lane offset, and against
// canaries past C (and, for sgemm_transpose_b, NaN rows past A and B), so a
// reordered chain or a padded lane or row whose result reaches C shows up.
//
// The blocked bit-identity tests run at every ISA clone the host supports
// (KernelsIsa/<level>: baseline, avx2, avx512f), with tile edges and lane
// offsets derived from that clone's vector width; im2col is checked against
// its direct-index definition across alternating geometries. The CNN layer
// kernels (cnn.hpp) are pinned byte for byte, at every level, to the code
// they replaced: the 2x2 max-pool (values, argmax, MaxPool2D's backward, in
// place and not) to the scalar window loop on NaN, signed-zero, infinite
// and tied windows, the fused ReLU -> pool to ReLU::forward then
// MaxPool2D::forward, and the direct convolution to im2col + sgemm seeded
// with the bias, including a -0 bias, negative weights over padded zeros
// and a NaN weight.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "kernels/backend.hpp"
#include "kernels/cnn.hpp"
#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
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

/// sgemm, sgemm_transpose_a and sgemm_transpose_b (in both orientations) on
/// odd shapes (ragged row panels, column tiles and tb panels) with inputs
/// drawn from `seed`, on the current backend; the results concatenated.
std::vector<float> all_three_gemms(std::uint64_t seed) {
  const std::size_t m = 37, k = 53, n = 41;
  const auto a = random_vec(m * k, seed);
  const auto b = random_vec(k * n, seed + 100);
  std::vector<float> c(m * n);
  kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
  std::vector<float> ct(k * n);
  kernels::sgemm_transpose_a(m, k, n, a.data(), b.data(), ct.data());
  std::vector<float> cb(m * m);
  kernels::sgemm_transpose_b(m, k, m, a.data(), a.data(), cb.data());
  // m < k: the transposed orientation, lanes over A's 19 rows.
  std::vector<float> cbt(19 * m);
  kernels::sgemm_transpose_b(19, k, m, b.data(), a.data(), cbt.data());
  c.insert(c.end(), ct.begin(), ct.end());
  c.insert(c.end(), cb.begin(), cb.end());
  c.insert(c.end(), cbt.begin(), cbt.end());
  return c;
}

}  // namespace

TEST(Kernels, BackendRegistry) {
  KernelEnvGuard guard;
  EXPECT_EQ(kernels::backend_from_string("naive"), kernels::Backend::kNaive);
  EXPECT_EQ(kernels::backend_from_string("blocked"), kernels::Backend::kBlocked);
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked}) {
    kernels::set_backend(be);
    EXPECT_EQ(kernels::backend_from_string(kernels::backend_name(kernels::backend())), be);
  }
  // The deleted fast-math tier's names fail closed, and the error names the
  // two values that remain.
  for (const char* removed : {"vectorized", "auto", "fast", ""}) {
    SCOPED_TRACE(removed);
    try {
      static_cast<void>(kernels::backend_from_string(removed));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'naive'"), std::string::npos) << what;
      EXPECT_NE(what.find("'blocked'"), std::string::npos) << what;
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

/// sgemm and sgemm_transpose_a by output geometry: C(rows, cols) accumulates
/// A(row, t) * B(t, col) over t < depth. sgemm stores A as (rows, depth) and
/// sgemm_transpose_a as (depth, rows); both store B as (depth, cols).
struct AxpyKernel {
  bool transpose_a;

  void call(std::size_t rows, std::size_t depth, std::size_t cols, const float* a,
            const float* b, float* c, bool accumulate) const {
    if (transpose_a) {
      kernels::sgemm_transpose_a(depth, rows, cols, a, b, c, accumulate);
    } else {
      kernels::sgemm(rows, depth, cols, a, b, c, accumulate);
    }
  }
  [[nodiscard]] std::size_t a_index(std::size_t rows, std::size_t depth, std::size_t r,
                                    std::size_t t) const {
    return transpose_a ? t * rows + r : r * depth + t;
  }
  [[nodiscard]] const char* name() const { return transpose_a ? "sgemm_ta" : "sgemm"; }
};

constexpr AxpyKernel kSgemm{false};
constexpr AxpyKernel kSgemmTa{true};

struct AxpyShape {
  std::size_t rows, depth, cols;
};

/// C on `be` into a buffer with a canary tail after C(rows, cols): a tile
/// that stored past the last column or row would land there.
std::vector<float> axpy_with_canary(const AxpyKernel& kern, kernels::Backend be,
                                    const AxpyShape& s, const std::vector<float>& a,
                                    const std::vector<float>& b, bool accumulate) {
  std::vector<float> c = random_vec(s.rows * s.cols, 97);
  c.resize(s.rows * s.cols + 16, kCanary);
  kernels::set_backend(be);
  kern.call(s.rows, s.depth, s.cols, a.data(), b.data(), c.data(), accumulate);
  return c;
}

void expect_axpy_blocked_matches_naive(const AxpyKernel& kern, const AxpyShape& s,
                                       const std::vector<float>& a,
                                       const std::vector<float>& b, const std::string& what) {
  for (const bool acc : {false, true}) {
    const auto want = axpy_with_canary(kern, kernels::Backend::kNaive, s, a, b, acc);
    const auto got = axpy_with_canary(kern, kernels::Backend::kBlocked, s, a, b, acc);
    for (std::size_t e = 0; e < got.size(); ++e) {
      ASSERT_TRUE(same_bits_or_both_nan(got[e], want[e]))
          << kern.name() << " " << what << " accumulate=" << acc << " element " << e
          << ": blocked " << got[e] << " naive " << want[e];
    }
    for (std::size_t e = s.rows * s.cols; e < got.size(); ++e) {
      ASSERT_EQ(got[e], kCanary) << kern.name() << " " << what;
    }
  }
}

/// Floats per vector at `level`: 4, 8 or 16.
std::size_t float_lanes(kernels::Isa level) { return std::size_t{4} << static_cast<int>(level); }

/// The shapes both axpy kernels are checked at, as output geometry, for the
/// clone with `vf` floats per vector.
std::vector<AxpyShape> axpy_shapes(const AxpyKernel& kern, std::size_t vf) {
  std::vector<AxpyShape> shapes;
  // The odd shapes of kShapes and the workload shapes, as (m, k, n) call
  // arguments: the CIFAR CNN conv forward GEMMs at 12x12 and 32x32 (conv1
  // 8x75x144 / 8x75x1024, conv2 16x200x36 / 16x200x256; sgemm_transpose_a
  // 16x200x36 is conv2's column gradient) and the 32x32x784 Linear shapes.
  std::vector<GemmShape> calls = kShapes;
  calls.insert(calls.end(),
               {{8, 75, 144}, {16, 200, 36}, {8, 75, 1024}, {16, 200, 256}, {32, 32, 784}});
  for (const auto& g : calls) {
    shapes.push_back(kern.transpose_a ? AxpyShape{g.k, g.m, g.n} : AxpyShape{g.m, g.k, g.n});
  }
  // Tile edges: 4-row panels, tiles of 1, 2 and 3 vectors and the narrower
  // vectors and scalar columns after them.
  std::vector<std::size_t> col_counts = {1, 3, 4, 5};
  for (const std::size_t edge : {vf, 2 * vf, 3 * vf}) {
    col_counts.insert(col_counts.end(), {edge - 1, edge, edge + 1});
  }
  for (const std::size_t cols : col_counts) {
    for (std::size_t rows = 1; rows <= 9; ++rows) shapes.push_back({rows, 13, cols});
  }
  return shapes;
}

void check_axpy_blocked_bit_identical(const AxpyKernel& kern, std::size_t vf) {
  for (const auto& s : axpy_shapes(kern, vf)) {
    const std::string what = "rows=" + std::to_string(s.rows) +
                             " depth=" + std::to_string(s.depth) +
                             " cols=" + std::to_string(s.cols);
    expect_axpy_blocked_matches_naive(kern, s, random_vec(s.rows * s.depth, 11),
                                      random_vec(s.depth * s.cols, 23), what);
    if (s.depth < 2) continue;
    // Random data hides a changed summation order. +-2^40 products at the
    // first two reduction indices make every chain's bits depend on it: in
    // ascending order they cancel before the other products are added, in
    // any order that adds them later they swallow those products. (Unlike
    // the double chains of sgemm_transpose_b, a float chain keeps nothing
    // of what is added between +-2^40, so the pair cannot sit at the ends.)
    auto a = random_vec(s.rows * s.depth, 141);
    auto b = random_vec(s.depth * s.cols, 143);
    for (std::size_t r = 0; r < s.rows; ++r) {
      a[kern.a_index(s.rows, s.depth, r, 0)] = 0x1p40f;
      a[kern.a_index(s.rows, s.depth, r, 1)] = -0x1p40f;
    }
    for (std::size_t j = 0; j < s.cols; ++j) b[j] = b[s.cols + j] = 1.0f;
    expect_axpy_blocked_matches_naive(kern, s, a, b, "cancelling " + what);
  }
}

/// A NaN or Inf in B column j lands in output column j only, at every lane
/// offset of a 3-vector tile, a 1-vector tile, the narrower vectors and the
/// scalar columns (cols = 5 vf - 1: 12, 4, 3 at 4 floats per vector); one in
/// A row r poisons exactly row r, in the full 4-row panel and the ragged last
/// one (rows = 5).
void check_axpy_blocked_propagates_nan_and_inf(const AxpyKernel& kern, std::size_t vf) {
  const AxpyShape s{5, 11, 5 * vf - 1};
  for (const float poison : {std::nanf(""), HUGE_VALF, -HUGE_VALF}) {
    for (std::size_t j = 0; j < s.cols; ++j) {
      const auto a = random_vec(s.rows * s.depth, 101);
      auto b = random_vec(s.depth * s.cols, 103);
      b[4 * s.cols + j] = poison;
      expect_axpy_blocked_matches_naive(kern, s, a, b, "B poison col " + std::to_string(j));
      const auto c = axpy_with_canary(kern, kernels::Backend::kBlocked, s, a, b, false);
      for (std::size_t r = 0; r < s.rows; ++r) {
        for (std::size_t jj = 0; jj < s.cols; ++jj) {
          EXPECT_EQ(std::isfinite(c[r * s.cols + jj]), jj != j)
              << kern.name() << " r=" << r << " j=" << jj;
        }
      }
    }
    for (std::size_t r = 0; r < s.rows; ++r) {
      auto a = random_vec(s.rows * s.depth, 107);
      const auto b = random_vec(s.depth * s.cols, 109);
      a[kern.a_index(s.rows, s.depth, r, 7)] = poison;
      expect_axpy_blocked_matches_naive(kern, s, a, b, "A poison row " + std::to_string(r));
      const auto c = axpy_with_canary(kern, kernels::Backend::kBlocked, s, a, b, false);
      for (std::size_t rr = 0; rr < s.rows; ++rr) {
        for (std::size_t j = 0; j < s.cols; ++j) {
          EXPECT_EQ(std::isfinite(c[rr * s.cols + j]), rr != r)
              << kern.name() << " r=" << rr << " j=" << j;
        }
      }
    }
  }
}

}  // namespace

namespace pdsl::kernels {

// Names the level in gtest's failure messages.
void PrintTo(Isa level, std::ostream* os) { *os << isa_name(level); }

}  // namespace pdsl::kernels

namespace {

/// The blocked bit-identity tests run once per ISA clone: the dispatch is
/// capped at the parameter's level, and a level this host lacks is skipped
/// by name, so it never passes silently.
class KernelsIsa : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  void SetUp() override {
    if (GetParam() > kernels::host_isa()) {
      GTEST_SKIP() << kernels::isa_name(GetParam()) << " is not supported by this host";
    }
    kernels::set_isa_cap(GetParam());
  }
  void TearDown() override { kernels::set_isa_cap(kernels::Isa::kAvx512); }

  [[nodiscard]] std::size_t vf() const { return float_lanes(GetParam()); }
  /// Doubles per vector of the sgemm_transpose_b tile.
  [[nodiscard]] std::size_t tb_lanes() const { return vf() / 2; }
  /// Lanes per packed sgemm_transpose_b panel: four vectors, at most 16.
  /// The lanes run over the narrower of m and k.
  [[nodiscard]] std::size_t tb_panel() const { return std::min<std::size_t>(4 * tb_lanes(), 16); }
  /// Tile rows of an sgemm_transpose_b tile: 12 accumulator vectors, so 12
  /// rows against a one-vector panel, down to 12 / (tb_panel / tb_lanes)
  /// against a full one.
  [[nodiscard]] static std::size_t tb_rows() { return 12; }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(Levels, KernelsIsa,
                         ::testing::Values(kernels::Isa::kBaseline, kernels::Isa::kAvx2,
                                           kernels::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<kernels::Isa>& info) {
                           return std::string(kernels::isa_name(info.param));
                         });

TEST(Kernels, IsaCapLowersTheDispatchedLevel) {
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kBaseline), "baseline");
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kAvx2), "avx2");
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kAvx512), "avx512f");
  EXPECT_EQ(kernels::isa(), kernels::host_isa());
  EXPECT_STREQ(kernels::isa_name(), kernels::isa_name(kernels::host_isa()));
  kernels::set_isa_cap(kernels::Isa::kBaseline);
  EXPECT_EQ(kernels::isa(), kernels::Isa::kBaseline);
  EXPECT_STREQ(kernels::isa_name(), "baseline");
  kernels::set_isa_cap(kernels::Isa::kAvx512);
  EXPECT_EQ(kernels::isa(), kernels::host_isa());
}

TEST_P(KernelsIsa, SgemmBlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm, s.m, s.k, s.n, s.m * s.k, s.k * s.n,
                                    s.m * s.n, acc);
    }
  }
  check_axpy_blocked_bit_identical(kSgemm, vf());
}

TEST_P(KernelsIsa, SgemmTransposeABlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm_transpose_a, s.m, s.k, s.n, s.m * s.k,
                                    s.m * s.n, s.k * s.n, acc);
    }
  }
  check_axpy_blocked_bit_identical(kSgemmTa, vf());
}

TEST_P(KernelsIsa, SgemmBlockedPropagatesNanAndInfAtEveryLaneOffset) {
  KernelEnvGuard guard;
  check_axpy_blocked_propagates_nan_and_inf(kSgemm, vf());
  check_axpy_blocked_propagates_nan_and_inf(kSgemmTa, vf());
}

TEST_P(KernelsIsa, SgemmTransposeBBlockedBitIdenticalToNaive) {
  KernelEnvGuard guard;
  // sgemm_transpose_b(m, n, k): A(m,n), B(k,n), C(m,k) — here (m, depth, cols).
  std::vector<GemmShape> shapes = kShapes;
  // The workload shapes: Linear forward 32x784->32, the stacked Shapley
  // first layer 64x784->64 and ->320 (10 members), and the CIFAR conv
  // weight gradients at 12x12 and at the paper's 32x32; then the paper's
  // Linear forward at B = 250.
  shapes.insert(shapes.end(), {{32, 784, 32}, {64, 784, 64}, {64, 784, 320}, {8, 144, 75},
                               {16, 36, 200}, {8, 1024, 75}, {16, 256, 200}, {250, 1024, 64}});
  // Deep reductions split the packed lanes into passes, so these straddle
  // pass edges and 12-row block edges in both orientations.
  shapes.insert(shapes.end(), {{13, 2048, 40}, {40, 2048, 13}, {37, 2048, 37}, {25, 1024, 25}});
  // Rows straddle the row tile and columns the panels (3 1/2 panels: 27
  // columns at 8 per panel), and the same transposed.
  shapes.push_back({37, 50, 7 * tb_panel() / 2 - 1});
  shapes.push_back({7 * tb_panel() / 2 - 1, 50, 37});
  // Every m and k through two row tiles of every panel width (12, 6, 4 or 3
  // rows), every vector edge and two panels: m < k, m == k and m > k, so
  // each count is taken both as lanes and as tile rows.
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= 2 * tb_rows() + 1; ++c) counts.push_back(c);
  for (std::size_t c = 2 * tb_panel() - 1; c <= 2 * tb_panel() + 1; ++c) {
    if (c > 2 * tb_rows() + 1) counts.push_back(c);
  }
  for (const std::size_t m : counts) {
    for (const std::size_t k : counts) shapes.push_back({m, 13, k});
  }
  for (const auto& s : shapes) {
    for (const bool acc : {false, true}) {
      expect_backends_bit_identical(kernels::sgemm_transpose_b, s.m, s.k, s.n, s.m * s.k,
                                    s.n * s.k, s.m * s.n, acc);
    }
    if (s.k < 2) continue;
    // Random data hides a changed summation order: a double sum of <= 2048
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

// A NaN or Inf in B row j lands in output column j only, and one in A row i
// in output row i only, in each orientation: m > k (lanes over B's rows),
// m < k (lanes over A's rows, C stored transposed) and m == k. The lane side
// has 2 panels + 1 rows (8, 8, 1 at 2 doubles per vector), so the poison
// sits at every lane offset of a full panel and of the ragged last one; the
// tile side has 14 more, a ragged last row tile at every panel width. The
// padded lanes of the ragged panel must never be written back.
TEST_P(KernelsIsa, SgemmTransposeBBlockedPropagatesNanAndInfAtEveryLaneOffset) {
  KernelEnvGuard guard;
  const std::size_t n = 11, lanes = 2 * tb_panel() + 1, tiles = lanes + 14;
  const GemmShape orientations[] = {{tiles, n, lanes}, {lanes, n, tiles}, {lanes, n, lanes}};
  for (const auto& s : orientations) {
    const std::size_t m = s.m, k = s.n;
    const std::string shape = "m=" + std::to_string(m) + " k=" + std::to_string(k) + " ";
    for (const float poison : {std::nanf(""), HUGE_VALF, -HUGE_VALF}) {
      for (std::size_t j = 0; j < k; ++j) {
        const auto a = random_vec(m * n, 101);
        auto b = random_vec(k * n, 103);
        b[j * n + 4] = poison;
        expect_tb_blocked_matches_naive(m, n, k, a, b, shape + "B poison row " + std::to_string(j));
        const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, a, b, false);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t jj = 0; jj < k; ++jj) {
            ASSERT_EQ(std::isfinite(c[i * k + jj]), jj != j) << shape << "i=" << i << " j=" << jj;
          }
        }
      }
      for (std::size_t i = 0; i < m; ++i) {
        auto a = random_vec(m * n, 107);
        const auto b = random_vec(k * n, 109);
        a[i * n + 7] = poison;
        expect_tb_blocked_matches_naive(m, n, k, a, b, shape + "A poison row " + std::to_string(i));
        const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, a, b, false);
        for (std::size_t ii = 0; ii < m; ++ii) {
          for (std::size_t j = 0; j < k; ++j) {
            ASSERT_EQ(std::isfinite(c[ii * k + j]), ii != i) << shape << "i=" << ii << " j=" << j;
          }
        }
      }
    }
    // 0 * inf -> NaN in every output.
    const std::vector<float> az(m * n, 0.0f);
    const std::vector<float> binf(k * n, HUGE_VALF);
    const auto c = tb_with_canary(kernels::Backend::kBlocked, m, n, k, az, binf, false);
    for (std::size_t e = 0; e < m * k; ++e) ASSERT_TRUE(std::isnan(c[e])) << shape << e;
  }
}

// NaN rows stored just past the logical end of A and B — the rows a padded
// row tile or lane would pick up if it read past the matrix — must not reach
// any written output: every ragged row/column count, in both orientations,
// matches naive with no NaN anywhere.
TEST_P(KernelsIsa, SgemmTransposeBBlockedIgnoresNanPastTheEdges) {
  KernelEnvGuard guard;
  const std::size_t n = 9;
  const std::size_t p = tb_panel();
  // Either operand may be the packed or the widened one.
  const std::size_t pad = std::max(p, tb_rows());
  for (const std::size_t k : {std::size_t{1}, tb_lanes() + 1, p - 1, p + 1, 2 * p - 1, 2 * p + 1}) {
    for (std::size_t m = 1; m <= tb_rows() + 2; ++m) {
      auto a = random_vec(m * n, 113);
      auto b = random_vec(k * n, 127);
      a.resize((m + pad) * n, std::nanf(""));
      b.resize((k + pad) * n, std::nanf(""));
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
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked}) {
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
  for (const auto be : {kernels::Backend::kNaive, kernels::Backend::kBlocked}) {
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

/// col(in_ch*k*k, oh*ow) by direct indexing: the im2col definition itself.
std::vector<float> im2col_reference(const std::vector<float>& x, std::size_t in_ch,
                                    std::size_t ih, std::size_t iw, std::size_t k,
                                    std::size_t pad) {
  const std::size_t oh = ih + 2 * pad - k + 1, ow = iw + 2 * pad - k + 1;
  std::vector<float> col(in_ch * k * k * oh * ow);
  std::size_t e = 0;
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    for (std::size_t kr = 0; kr < k; ++kr) {
      for (std::size_t kc = 0; kc < k; ++kc) {
        for (std::size_t r = 0; r < oh; ++r) {
          for (std::size_t c = 0; c < ow; ++c, ++e) {
            const auto xr = static_cast<std::ptrdiff_t>(r + kr) - static_cast<std::ptrdiff_t>(pad);
            const auto xc = static_cast<std::ptrdiff_t>(c + kc) - static_cast<std::ptrdiff_t>(pad);
            const bool inside = xr >= 0 && xc >= 0 && xr < static_cast<std::ptrdiff_t>(ih) &&
                                xc < static_cast<std::ptrdiff_t>(iw);
            col[e] = inside ? x[(ic * ih + static_cast<std::size_t>(xr)) * iw +
                                static_cast<std::size_t>(xc)]
                            : 0.0f;
          }
        }
      }
    }
  }
  return col;
}

}  // namespace

// im2col against the direct-index definition at the CNN input sizes (square
// and not), both kernel sizes and every padding, plus outputs narrower than
// one 4-float move. im2col keeps a per-thread padded plane, so the
// geometries run alternately on one thread, twice, in orders where each call
// follows a different geometry: a border left stale by the previous call
// shows up as a mismatch. Every output element is overwritten from a
// sentinel.
TEST(Kernels, Im2colMatchesDirectIndexAcrossAlternatingGeometries) {
  struct Geometry {
    std::size_t in_ch, ih, iw, k, pad;
  };
  std::vector<Geometry> geos;
  for (const std::size_t size : {12, 6, 32, 16, 28, 14}) {
    for (const std::size_t k : {3, 5}) {
      for (const std::size_t pad : {0, 1, 2}) {
        geos.push_back({3, size, size, k, pad});
        geos.push_back({2, size, size / 2 + 3, k, pad});
      }
    }
  }
  // ow = 1, 2 and 3: every column row is shorter than one move.
  geos.insert(geos.end(), {{2, 5, 3, 3, 0}, {2, 4, 2, 3, 1}, {1, 3, 1, 3, 2}, {3, 2, 2, 2, 1}});
  std::vector<std::size_t> order(geos.size());
  for (std::size_t i = 0; i < geos.size(); ++i) order[i] = i;
  for (std::size_t i = geos.size(); i-- > 0;) order.push_back(i);
  for (std::size_t i = 0; i < geos.size(); i += 2) order.push_back(i);
  for (std::size_t i = 1; i < geos.size(); i += 2) order.push_back(i);
  for (const std::size_t g : order) {
    const Geometry& geo = geos[g];
    const auto x = random_vec(geo.in_ch * geo.ih * geo.iw, 300 + g);
    const auto want = im2col_reference(x, geo.in_ch, geo.ih, geo.iw, geo.k, geo.pad);
    std::vector<float> got(want.size() + 4, -777.0f);
    kernels::im2col(x.data(), geo.in_ch, geo.ih, geo.iw, geo.k, geo.pad, got.data());
    const std::string what = "in_ch=" + std::to_string(geo.in_ch) + " " +
                             std::to_string(geo.ih) + "x" + std::to_string(geo.iw) +
                             " k=" + std::to_string(geo.k) + " pad=" + std::to_string(geo.pad);
    for (std::size_t e = 0; e < want.size(); ++e) ASSERT_EQ(got[e], want[e]) << what << " @" << e;
    for (std::size_t e = want.size(); e < got.size(); ++e) ASSERT_EQ(got[e], -777.0f) << what;
  }
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

// Agents call the kernels concurrently from parallel_for bodies, each on its
// own inputs; the thread_local sgemm_transpose_b panel keeps every caller's
// packing private. Each concurrent result must equal the same call made
// sequentially.
TEST_P(KernelsIsa, ConcurrentCallersInsideParallelForMatchSequential) {
  KernelEnvGuard guard;
  constexpr std::size_t kCallers = 8;
  kernels::set_backend(kernels::Backend::kBlocked);
  runtime::set_global_threads(1);
  std::vector<std::vector<float>> want(kCallers);
  for (std::size_t i = 0; i < kCallers; ++i) want[i] = all_three_gemms(61 + i);
  runtime::set_global_threads(4);
  std::vector<std::vector<float>> got(kCallers);
  runtime::parallel_for(0, kCallers, 1,
                        [&](std::size_t i) { got[i] = all_three_gemms(61 + i); });
  for (std::size_t i = 0; i < kCallers; ++i) EXPECT_EQ(got[i], want[i]) << "caller " << i;
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
// CNN layer kernels (cnn.hpp) against the code they replaced, at every level.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::uint32_t> bits_of(const float* p, std::size_t n) {
  std::vector<std::uint32_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = std::bit_cast<std::uint32_t>(p[i]);
  return out;
}

/// The scalar 2x2 loop MaxPool2D ran before kernels::maxpool2x2: each window
/// starts at its first element, later ones replace it only if strictly
/// greater.
void pool_reference(const std::vector<float>& x, std::size_t planes, std::size_t ih,
                    std::size_t iw, std::vector<float>& y, std::vector<std::uint32_t>& arg) {
  y.clear();
  arg.clear();
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t r = 0; r < ih / 2; ++r) {
      for (std::size_t c = 0; c < iw / 2; ++c) {
        const std::size_t base = (p * ih + 2 * r) * iw + 2 * c;
        const std::size_t idx[4] = {base, base + 1, base + iw, base + iw + 1};
        std::size_t at = idx[0];
        for (std::size_t t = 1; t < 4; ++t) {
          if (x[idx[t]] > x[at]) at = idx[t];
        }
        y.push_back(x[at]);
        arg.push_back(static_cast<std::uint32_t>(at));
      }
    }
  }
}

struct PoolShape {
  std::size_t planes, ih, iw;
};

// Rows of 1 to 33 outputs (every chunk width and its tails, odd input rows
// and columns that the pool skips), a single plane, and the CNNs' pools.
const std::vector<PoolShape> kPoolShapes = {
    {1, 2, 2},  {3, 2, 3},   {2, 3, 2},   {2, 4, 4},   {5, 5, 7},   {4, 6, 6},
    {3, 7, 7},  {2, 8, 8},   {2, 9, 11},  {3, 12, 12}, {3, 13, 9},  {2, 16, 16},
    {2, 18, 34}, {1, 24, 24}, {2, 32, 32}, {1, 33, 66}, {1, 2, 64}, {16, 14, 14},
};

/// Windows that pin the comparison order: NaN first and later, +-0 ties,
/// +-inf, equal maxima. Window o of the input gets pattern o % size(), or
/// random values when that is past the end.
std::vector<float> pool_input(const PoolShape& s, std::uint64_t seed) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> patterns = {
      {nan, 1.0f, 2.0f, 3.0f},     {1.0f, nan, 3.0f, 2.0f},      {1.0f, 2.0f, nan, -1.0f},
      {-1.0f, -2.0f, -3.0f, nan},  {-nan, -nan, 4.0f, 5.0f},     {-0.0f, 0.0f, 0.0f, -0.0f},
      {0.0f, -0.0f, -0.0f, 0.0f},  {-1.0f, 0.0f, -0.0f, 0.0f},   {-0.0f, -1.0f, -2.0f, 0.0f},
      {1.5f, 1.5f, 1.5f, 1.5f},    {-2.0f, 3.0f, 3.0f, 3.0f},    {-inf, -inf, -inf, -inf},
      {-inf, inf, inf, -inf},      {inf, inf, nan, inf},         {-3e30f, -2e30f, -5e30f, -4e30f},
      {-5.0f, -4.0f, -3.0f, -2.0f}, {2.0f, 1.0f, 2.0f, 1.0f},
  };
  std::vector<float> x = random_vec(s.planes * s.ih * s.iw, seed);
  std::size_t o = 0;
  for (std::size_t p = 0; p < s.planes; ++p) {
    for (std::size_t r = 0; r < s.ih / 2; ++r) {
      for (std::size_t c = 0; c < s.iw / 2; ++c, ++o) {
        if (o % (patterns.size() + 3) >= patterns.size()) continue;
        const auto& pat = patterns[o % (patterns.size() + 3)];
        const std::size_t base = (p * s.ih + 2 * r) * s.iw + 2 * c;
        x[base] = pat[0];
        x[base + 1] = pat[1];
        x[base + s.iw] = pat[2];
        x[base + s.iw + 1] = pat[3];
      }
    }
  }
  return x;
}

}  // namespace

TEST_P(KernelsIsa, MaxPool2x2MatchesTheScalarLoopInAndOutOfPlace) {
  for (const auto& s : kPoolShapes) {
    SCOPED_TRACE(std::to_string(s.planes) + "x" + std::to_string(s.ih) + "x" +
                 std::to_string(s.iw));
    const auto x = pool_input(s, 400 + s.ih * s.iw);
    std::vector<float> want;
    std::vector<std::uint32_t> want_arg;
    pool_reference(x, s.planes, s.ih, s.iw, want, want_arg);
    const std::size_t n = want.size();
    // Canaries past y and arg: no lane of a chunk may land there.
    std::vector<float> y(n + 32, -777.0f);
    std::vector<std::uint32_t> arg(n + 32, 0xDEADBEEF);
    kernels::maxpool2x2(x.data(), s.planes, s.ih, s.iw, y.data(), arg.data());
    EXPECT_EQ(bits_of(y.data(), n), bits_of(want.data(), n));
    EXPECT_EQ(std::vector<std::uint32_t>(arg.begin(), arg.begin() + static_cast<long>(n)),
              want_arg);
    for (std::size_t e = n; e < y.size(); ++e) ASSERT_EQ(y[e], -777.0f) << "@" << e;
    for (std::size_t e = n; e < arg.size(); ++e) ASSERT_EQ(arg[e], 0xDEADBEEF) << "@" << e;
    // In place: the outputs land over the front of the input.
    std::vector<float> io = x;
    kernels::maxpool2x2(io.data(), s.planes, s.ih, s.iw, io.data(), arg.data());
    EXPECT_EQ(bits_of(io.data(), n), bits_of(want.data(), n));
    EXPECT_EQ(std::vector<std::uint32_t>(arg.begin(), arg.begin() + static_cast<long>(n)),
              want_arg);

    // The inference form: the values of the scalar loop over ReLU'd input.
    std::vector<float> relu_x = x;
    for (float& v : relu_x) v = v > 0.0f ? v : 0.0f;
    pool_reference(relu_x, s.planes, s.ih, s.iw, want, want_arg);
    std::fill(y.begin(), y.end(), -777.0f);
    kernels::relu_maxpool2x2(x.data(), s.planes, s.ih, s.iw, y.data());
    EXPECT_EQ(bits_of(y.data(), n), bits_of(want.data(), n));
    for (std::size_t e = n; e < y.size(); ++e) ASSERT_EQ(y[e], -777.0f) << "@" << e;
    io = x;
    kernels::relu_maxpool2x2(io.data(), s.planes, s.ih, s.iw, io.data());
    EXPECT_EQ(bits_of(io.data(), n), bits_of(want.data(), n));
  }
}

// The layer: MaxPool2D::forward's values and argmax (through backward, which
// routes each gradient to its window's winner, accumulating none twice), and
// the fused inference form against ReLU::forward then MaxPool2D::forward.
TEST_P(KernelsIsa, MaxPool2DLayerMatchesTheScalarLoopAndReluThenPool) {
  for (const auto& s : kPoolShapes) {
    SCOPED_TRACE(std::to_string(s.planes) + "x" + std::to_string(s.ih) + "x" +
                 std::to_string(s.iw));
    const Shape in_shape{1, s.planes, s.ih, s.iw};
    const auto x = pool_input(s, 500 + s.ih * s.iw);
    std::vector<float> want;
    std::vector<std::uint32_t> want_arg;
    pool_reference(x, s.planes, s.ih, s.iw, want, want_arg);
    nn::MaxPool2D pool;
    const Tensor y = pool.forward(Tensor(in_shape, x));
    ASSERT_EQ(y.shape(), (Shape{1, s.planes, s.ih / 2, s.iw / 2}));
    EXPECT_EQ(bits_of(y.data(), y.numel()), bits_of(want.data(), want.size()));
    const auto g = random_vec(y.numel(), 600);
    std::vector<float> want_gx(x.size(), 0.0f);
    for (std::size_t o = 0; o < g.size(); ++o) want_gx[want_arg[o]] += g[o];
    const Tensor gx = pool.backward(Tensor(y.shape(), g));
    ASSERT_EQ(gx.shape(), in_shape);
    EXPECT_EQ(bits_of(gx.data(), gx.numel()), bits_of(want_gx.data(), want_gx.size()));

    nn::ReLU relu;
    nn::MaxPool2D after_relu;
    const Tensor two_pass = after_relu.forward(relu.forward(Tensor(in_shape, x)));
    const Tensor fused = nn::MaxPool2D().infer_after_relu(Tensor(in_shape, x));
    ASSERT_EQ(fused.shape(), two_pass.shape());
    EXPECT_EQ(bits_of(fused.data(), fused.numel()), bits_of(two_pass.data(), two_pass.numel()));
  }
}

namespace {

struct DirectConvCase {
  std::size_t batch, in_ch, out_ch, k, pad, ih, iw;
};

// conv1 and conv2 of the cifar_cnn at 12x12 and at 32x32 and of the
// mnist_cnn at 14x14, the set_members stack of six cifar members (48
// channels), then channel counts that leave a block part-empty or need
// several blocks at every width (1, 5, 17, 33, 70), rows of 1 to 13 pixels
// (every tile remainder), pad 0, an even kernel and a 1x1 kernel.
const std::vector<DirectConvCase> kDirectConvCases = {
    {3, 3, 8, 5, 2, 12, 12}, {3, 8, 16, 5, 2, 6, 6},  {1, 3, 8, 5, 2, 32, 32},
    {1, 8, 16, 5, 2, 16, 16}, {2, 1, 8, 3, 1, 14, 14}, {2, 8, 16, 3, 1, 7, 7},
    {2, 3, 48, 5, 2, 12, 12}, {2, 2, 1, 3, 1, 5, 7},   {1, 1, 5, 3, 0, 9, 4},
    {2, 3, 17, 3, 1, 6, 13},  {1, 2, 70, 1, 0, 3, 3},  {1, 1, 33, 2, 1, 4, 5},
    {2, 2, 3, 3, 2, 1, 1},    {0, 1, 2, 3, 1, 4, 4},
};

/// Per image: im2col, every output row seeded with its bias, then sgemm
/// accumulating on top (Conv2D's blocked forward before the direct kernel).
std::vector<float> conv_im2col_reference(const DirectConvCase& c, const std::vector<float>& x,
                                         const std::vector<float>& w,
                                         const std::vector<float>& bias) {
  const std::size_t oh = c.ih + 2 * c.pad - c.k + 1, ow = c.iw + 2 * c.pad - c.k + 1;
  const std::size_t taps = c.in_ch * c.k * c.k, npix = oh * ow;
  std::vector<float> col(taps * npix), y(c.batch * c.out_ch * npix);
  for (std::size_t b = 0; b < c.batch; ++b) {
    kernels::im2col(x.data() + b * c.in_ch * c.ih * c.iw, c.in_ch, c.ih, c.iw, c.k, c.pad,
                    col.data());
    float* yb = y.data() + b * c.out_ch * npix;
    for (std::size_t oc = 0; oc < c.out_ch; ++oc) {
      std::fill(yb + oc * npix, yb + (oc + 1) * npix, bias[oc]);
    }
    kernels::sgemm(c.out_ch, taps, npix, w.data(), col.data(), yb, /*accumulate=*/true);
  }
  return y;
}

}  // namespace

TEST_P(KernelsIsa, DirectConvForwardMatchesIm2colSgemm) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kBlocked);
  for (std::size_t ci = 0; ci < kDirectConvCases.size(); ++ci) {
    const auto& c = kDirectConvCases[ci];
    SCOPED_TRACE("case " + std::to_string(ci));
    const std::size_t taps = c.in_ch * c.k * c.k;
    auto x = random_vec(c.batch * c.in_ch * c.ih * c.iw, 700 + ci);
    auto w = random_vec(c.out_ch * taps, 800 + ci);
    auto bias = random_vec(c.out_ch, 900 + ci);
    // Channel 0: a -0 bias and negative weights, whose w x 0 terms over the
    // padding are -0; image 0 is all zeros, so its channel-0 outputs are
    // -0 + -0 + ... The last channel (if another) holds a NaN weight.
    bias[0] = -0.0f;
    for (std::size_t t = 0; t < taps; ++t) w[t] = -std::abs(w[t]) - 0.25f;
    if (c.batch > 0) std::fill(x.begin(), x.begin() + static_cast<long>(c.in_ch * c.ih * c.iw), 0.0f);
    if (c.out_ch > 1) w[(c.out_ch - 1) * taps + taps / 2] = std::numeric_limits<float>::quiet_NaN();
    const auto want = conv_im2col_reference(c, x, w, bias);
    std::vector<float> got(want.size() + 16, -777.0f);
    kernels::conv2d_forward(x.data(), c.batch, c.in_ch, c.ih, c.iw, w.data(), bias.data(),
                            c.out_ch, c.k, c.pad, got.data());
    EXPECT_EQ(bits_of(got.data(), want.size()), bits_of(want.data(), want.size()));
    for (std::size_t e = want.size(); e < got.size(); ++e) ASSERT_EQ(got[e], -777.0f) << "@" << e;

    // Conv2D's forward on the blocked backend is the kernel.
    nn::Conv2D conv(c.in_ch, c.out_ch, c.k, c.pad);
    conv.params()[0]->value.vec() = w;
    conv.params()[1]->value.vec() = bias;
    const Tensor y = conv.forward(Tensor(Shape{c.batch, c.in_ch, c.ih, c.iw}, x));
    EXPECT_EQ(bits_of(y.data(), y.numel()), bits_of(want.data(), want.size()));
  }
}
