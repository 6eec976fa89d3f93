// Unit tests for the deterministic RNG substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "dp/mechanism.hpp"

using pdsl::Rng;

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng root(7);
  Rng c1 = root.split(1);
  Rng c2 = root.split(2);
  Rng c1_again = Rng(7).split(1);
  EXPECT_DOUBLE_EQ(c1.uniform(), c1_again.uniform());
  // Splitting must not perturb the parent stream.
  Rng fresh(7);
  EXPECT_DOUBLE_EQ(root.uniform(), fresh.uniform());
  // Children are distinct streams.
  EXPECT_NE(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng r(5);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.08);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, DirichletSumsToOneAndNonNegative) {
  Rng r(6);
  for (int rep = 0; rep < 50; ++rep) {
    const auto p = r.dirichlet(std::vector<double>(8, 0.25));
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSmallAlphaIsConcentrated) {
  // As alpha -> 0 the draw approaches a one-hot vector.
  Rng r(7);
  double max_mass = 0.0;
  const int reps = 100;
  for (int rep = 0; rep < reps; ++rep) {
    const auto p = r.dirichlet(std::vector<double>(10, 0.05));
    max_mass += *std::max_element(p.begin(), p.end());
  }
  EXPECT_GT(max_mass / reps, 0.8);
}

TEST(Rng, DirichletLargeAlphaIsUniformish) {
  Rng r(8);
  const auto p = r.dirichlet(std::vector<double>(10, 500.0));
  for (double v : p) EXPECT_NEAR(v, 0.1, 0.03);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng r(9);
  const auto p = r.permutation(20);
  std::vector<std::size_t> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, PermutationsVary) {
  Rng r(10);
  const auto a = r.permutation(12);
  const auto b = r.permutation(12);
  EXPECT_NE(a, b);
}

TEST(Rng, FillNormalFills) {
  Rng r(13);
  std::vector<float> buf(1000, 0.0f);
  r.fill_normal(buf, 0.0, 1.0);
  double nonzero = 0;
  for (float v : buf) nonzero += (v != 0.0f);
  EXPECT_GT(nonzero, 990);
}

// ---------------------------------------------------------------------------
// The in-repo MT19937-64 engine against libstdc++'s std::mt19937_64, which is
// kept in the tree only here, as the oracle.
// ---------------------------------------------------------------------------

namespace {

std::string std_blob(std::uint64_t seed, const std::mt19937_64& oracle) {
  std::ostringstream out;
  out << seed << ' ' << oracle;
  return out.str();
}

/// A valid serialize() blob of `rng` with its read index replaced by `index`.
std::string with_index(const Rng& rng, const std::string& index) {
  std::string blob = rng.serialize();
  return blob.substr(0, blob.rfind(' ') + 1) + index;
}

}  // namespace

TEST(Rng, EngineMatchesStdMt19937_64) {
  const std::uint64_t seeds[] = {Rng().seed(), Rng(7).split(1).seed(), Rng(42).split(0xD5).seed(),
                                 0, ~std::uint64_t{0}};
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    // A fresh engine sits at index 312: nothing read, no twist yet.
    ASSERT_EQ(rng.serialize(), std_blob(seed, oracle)) << "seed " << seed;
    // Across several twists, stopping at a block end (index 312) and mid-block.
    for (const int words : {312, 312 * 3, 100, 401}) {
      for (int i = 0; i < words; ++i) ASSERT_EQ(rng.engine()(), oracle()) << "seed " << seed;
      ASSERT_EQ(rng.serialize(), std_blob(seed, oracle)) << "seed " << seed;
    }
    // The std distributions draw from it exactly as from std::mt19937_64.
    EXPECT_EQ(rng.uniform(-1.0, 3.0), std::uniform_real_distribution<double>(-1.0, 3.0)(oracle));
    EXPECT_EQ(rng.normal(0.5, 2.0), std::normal_distribution<double>(0.5, 2.0)(oracle));
    EXPECT_EQ(rng.uniform_int(-5, 1000), std::uniform_int_distribution<std::int64_t>(-5, 1000)(oracle));
    EXPECT_EQ(rng.gamma(0.3), std::gamma_distribution<double>(0.3, 1.0)(oracle));

    // Index 0 (a whole twisted block unread) arises only from text: both
    // engines read the same blob and must write it back and continue alike.
    const std::string at_zero = with_index(rng, "0");
    std::istringstream in(at_zero);
    std::uint64_t blob_seed = 0;
    in >> blob_seed >> oracle;
    ASSERT_TRUE(in) << "the oracle refused an index-0 blob";
    Rng restored = Rng::deserialize(at_zero);
    EXPECT_EQ(restored.serialize(), std_blob(seed, oracle));
    for (int i = 0; i < 700; ++i) ASSERT_EQ(restored.engine()(), oracle()) << "seed " << seed;
  }
  // A blob written by std::mt19937_64's operator<< continues its stream.
  for (const int words : {0, 1, 311, 312, 500}) {
    std::mt19937_64 oracle(2024);
    for (int i = 0; i < words; ++i) oracle();
    Rng rng = Rng::deserialize(std_blob(2024, oracle));
    EXPECT_EQ(rng.seed(), 2024u);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.engine()(), oracle()) << "after " << words;
  }
}

TEST(Rng, DeserializeRejectsIndexPastState) {
  Rng rng(11);
  EXPECT_NO_THROW(Rng::deserialize(with_index(rng, "312")));
  EXPECT_THROW(Rng::deserialize(with_index(rng, "313")), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(with_index(rng, "18446744073709551615")), std::runtime_error);
}

TEST(Rng, DeserializeRejectsShortState) {
  // The seed and 311 words, then the index: the index is read as word 312
  // and the index itself is missing.
  std::string blob = Rng(12).serialize();
  const auto last_word = blob.rfind(' ', blob.rfind(' ') - 1);
  EXPECT_THROW(Rng::deserialize(blob.substr(0, last_word) + " 312"), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(blob.substr(0, blob.size() / 2)), std::runtime_error);
  EXPECT_THROW(Rng::deserialize("12"), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(""), std::runtime_error);
}

TEST(Rng, DeserializeRejectsNonNumericWord) {
  const std::string blob = Rng(13).serialize();
  const auto word1 = blob.find(' ', blob.find(' ') + 1) + 1;  // seed, word 0, then word 1
  std::string bad = blob;
  bad[word1] = 'x';
  EXPECT_THROW(Rng::deserialize(bad), std::runtime_error);
  EXPECT_THROW(Rng::deserialize("seed " + blob.substr(blob.find(' ') + 1)), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(with_index(Rng(13), "1x")), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(blob + " 7"), std::runtime_error);  // trailing text
  EXPECT_NO_THROW(Rng::deserialize(blob + " \n"));
}

// ---------------------------------------------------------------------------
// Ziggurat sampler (the DP noise stream).
// ---------------------------------------------------------------------------

namespace {

constexpr double kZigTailEdge = 3.442619855899;  // R of the 128-layer ziggurat

std::vector<double> ziggurat_draws(std::uint64_t seed, std::size_t n) {
  Rng r(seed);
  std::vector<double> z(n);
  for (auto& v : z) v = r.ziggurat_normal();
  return z;
}

double std_normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// |observed - p| within `k` binomial standard errors of n trials.
void expect_binomial(std::size_t hits, std::size_t n, double p, double k, const char* what) {
  const double se = std::sqrt(p * (1.0 - p) / static_cast<double>(n));
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(n), p, k * se) << what;
}

}  // namespace

TEST(Ziggurat, KolmogorovSmirnovAgainstPhi) {
  auto z = ziggurat_draws(101, 1000000);
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf = std_normal_cdf(z[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - cdf, cdf - static_cast<double>(i) / n});
  }
  // Asymptotic critical value at alpha = 0.001: sqrt(-ln(alpha / 2) / 2) / sqrt(n).
  const double critical = std::sqrt(-std::log(0.0005) / 2.0) / std::sqrt(n);
  EXPECT_LT(d, critical);
}

TEST(Ziggurat, TailMassesMatchPhi) {
  const std::size_t n = 1000000;
  const auto z = ziggurat_draws(102, n);
  std::size_t beyond3 = 0, beyond4 = 0, beyond_r = 0;
  for (double v : z) {
    beyond3 += std::fabs(v) > 3.0;
    beyond4 += std::fabs(v) > 4.0;
    beyond_r += std::fabs(v) > kZigTailEdge;
  }
  expect_binomial(beyond3, n, 2.699796e-3, 5.0, "P(|z| > 3)");
  expect_binomial(beyond4, n, 6.334248e-5, 5.0, "P(|z| > 4)");
  // Only the tail branch can return |z| > R; it must be taken, and as often
  // as the normal tail beyond R (2 * (1 - Phi(R)) = 5.761e-4).
  EXPECT_GT(beyond_r, 0u) << "the tail branch was never taken";
  expect_binomial(beyond_r, n, 2.0 * (1.0 - std_normal_cdf(kZigTailEdge)), 5.0,
                  "P(|z| > R)");
}

TEST(Ziggurat, MomentsWithinBands) {
  const std::size_t n = 1000000;
  const auto z = ziggurat_draws(103, n);
  double m1 = 0.0;
  for (double v : z) m1 += v;
  m1 /= static_cast<double>(n);
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double v : z) {
    const double c = v - m1;
    m2 += c * c;
    m3 += c * c * c;
    m4 += c * c * c * c;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  const double skew = m3 / std::pow(m2, 1.5);
  const double excess_kurtosis = m4 / (m2 * m2) - 3.0;
  // Five standard errors of each estimator under N(0, 1).
  const double rn = std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(m1, 0.0, 5.0 / rn);
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0) / rn);
  EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0) / rn);
  EXPECT_NEAR(excess_kurtosis, 0.0, 5.0 * std::sqrt(24.0) / rn);
}

TEST(Ziggurat, SameSeedSameStream) {
  EXPECT_EQ(ziggurat_draws(104, 5000), ziggurat_draws(104, 5000));
  EXPECT_NE(ziggurat_draws(104, 50), ziggurat_draws(105, 50));
}

TEST(Ziggurat, SerializeMidStreamResumesExactly) {
  // The sampler keeps no state beyond the engine (no cached pair value), so
  // an engine checkpoint taken after any number of draws resumes bit-exactly.
  for (const std::size_t k : {0u, 1u, 7u, 313u, 4099u}) {
    Rng live(106);
    for (std::size_t i = 0; i < k; ++i) (void)live.ziggurat_normal();
    Rng restored = Rng::deserialize(live.serialize());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(live.ziggurat_normal(), restored.ziggurat_normal()) << "k=" << k << " i=" << i;
    }
  }
}

TEST(Ziggurat, BulkMatchesScalarDraws) {
  // dp::add_gaussian_noise draws through Rng::add_ziggurat_noise, which reads
  // tempered blocks of engine words; it must equal the one-draw-at-a-time
  // loop bit for bit and leave the engine in the same state, wherever in a
  // block it starts and however many blocks (and rejections that straddle a
  // block end) it crosses.
  const auto check = [](std::size_t n, int offset, std::uint64_t seed) {
    Rng bulk(seed);
    for (int i = 0; i < offset; ++i) (void)bulk.engine()();
    Rng scalar = bulk;
    std::vector<float> g(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) g[i] = expected[i] = 0.001f * static_cast<float>(i % 997);
    const double sigma = 0.7;
    pdsl::dp::add_gaussian_noise(g, sigma, bulk);
    for (auto& v : expected) v += static_cast<float>(sigma * scalar.ziggurat_normal());
    ASSERT_TRUE(n == 0 || std::memcmp(g.data(), expected.data(), n * sizeof(float)) == 0)
        << "n=" << n << " offset=" << offset;
    ASSERT_EQ(bulk.serialize(), scalar.serialize()) << "n=" << n << " offset=" << offset;
    ASSERT_EQ(bulk.engine()(), scalar.engine()()) << "n=" << n << " offset=" << offset;
  };
  for (const std::size_t n : {0u, 1u, 311u, 312u, 313u, 25450u}) {
    for (const int offset : {0, 1, 311, 312}) check(n, offset, 300 + n);
  }
  check(1000003, 7, 301);
}

TEST(Rng, SplitMixAvalanche) {
  // Adjacent inputs should produce very different outputs.
  const auto a = pdsl::splitmix64(1);
  const auto b = pdsl::splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_GT(__builtin_popcountll(a ^ b), 16);
}
