#pragma once
// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library (data synthesis, mini-batch
// sampling, DP noise, Shapley permutations) draws from an explicitly seeded
// Rng so that a whole experiment is a pure function of its seed. Independent
// streams for sub-components are derived with split(), which uses SplitMix64
// so that derived streams are statistically independent of the parent.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pdsl {

/// MT19937-64 (Matsumoto & Nishimura), word for word the engine libstdc++
/// ships as std::mt19937_64: the same seeding, the same 312-word state and
/// read index, the same tempering and the same text form. Only the twist
/// differs in how it is written: it selects the matrix constant with a mask,
/// `a & (0 - (y & 1))`, where libstdc++ writes `(y & 1) ? a : 0`, which
/// baseline x86-64 compiles to a branch that is mispredicted on half the
/// words. Satisfies UniformRandomBitGenerator, so the std::*_distributions
/// draw from it exactly as they drew from std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) twist();
    return temper(state_[index_++]);
  }

  /// Bulk access for samplers that read many words in a row. Tempers the
  /// current block's unread words into block[i, 312), where i is the read
  /// index, starting a new block first (i = 0) when the current one is spent,
  /// and returns i. Every word of the block then counts as read;
  /// unread_from(k) hands words k..311 back, so that operator() continues
  /// the stream exactly after the last word the caller used.
  std::size_t take_block(result_type* block);
  void unread_from(std::size_t k) { index_ = k; }

  /// Same text as libstdc++'s operator<< and operator>> on std::mt19937_64:
  /// the 312 state words, each followed by a space, then the read index.
  /// read() throws std::runtime_error on a missing or non-numeric word and
  /// on an index past 312, leaving *this unchanged.
  void write(std::ostream& out) const;
  void read(std::istream& in);

 private:
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }
  void twist();

  result_type state_[kStateWords];
  std::size_t index_;
};

/// Explicitly seeded random stream with convenience samplers and stream
/// splitting, over the in-repo Mt19937_64 engine. Copyable; copies advance
/// independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Deterministic in (seed, salt).
  [[nodiscard]] Rng split(std::uint64_t salt) const;

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (mean 0, stddev 1) unless overridden.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Standard normal from the 128-layer Marsaglia–Tsang ziggurat (Doornik's
  /// ZIGNOR layout, Marsaglia's exact tail beyond R ≈ 3.4426). About four
  /// times cheaper than normal(): 97% of attempts cost one engine word, a
  /// table lookup and a multiply. Engine words become uniforms by explicit
  /// bit arithmetic, and no state is kept beyond the engine, so the stream
  /// depends only on the seed (under any standard library) and survives
  /// serialize()/deserialize().
  /// This is the DP noise sampler; normal() and fill_normal() stay on
  /// std::normal_distribution for data synthesis and weight init.
  double ziggurat_normal();

  /// g[i] += float(sigma * ziggurat_normal()) for i in [0, n), bit for bit
  /// and leaving the engine where that loop would, but tempering the engine's
  /// words a block at a time and fetching the ziggurat tables once per call.
  void add_ziggurat_noise(float* g, std::size_t n, double sigma);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Sample from Gamma(shape, 1). Used to build Dirichlet draws.
  double gamma(double shape);

  /// Sample a probability vector from Dirichlet(alpha).
  std::vector<double> dirichlet(const std::vector<double>& alpha);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Fill a buffer with i.i.d. N(mean, stddev^2) samples.
  void fill_normal(std::vector<float>& buf, double mean, double stddev);

  Mt19937_64& engine() { return engine_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Textual seed + engine state, for bit-exact checkpoint/resume (S-RECOV):
  /// the seed, a space, then the full 312-word state and read index in
  /// std::mt19937_64's operator<< form, so a restored stream continues
  /// exactly where the saved one stopped.
  [[nodiscard]] std::string serialize() const;
  /// Rebuild a stream captured by serialize() (or written as
  /// `seed << ' ' << std::mt19937_64`); throws std::runtime_error on a
  /// malformed blob: a missing or non-numeric word, a read index past 312,
  /// or trailing text.
  static Rng deserialize(const std::string& state);

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// SplitMix64 mixing step; also useful as a cheap deterministic hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

}  // namespace pdsl
