#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <numeric>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>

namespace pdsl {

Mt19937_64::Mt19937_64(result_type seed) : index_(kStateWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t kN = kStateWords;
  constexpr std::size_t kM = 156;
  constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  // mag(y) = (y & 1) ? A : 0, as a mask rather than a branch.
  const auto mix = [](result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ (kMatrixA & (result_type{0} - (y & 1)));
  };
  for (std::size_t k = 0; k < kN - kM; ++k) state_[k] = mix(state_[k], state_[k + 1], state_[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kM - kN]);
  }
  state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
  index_ = 0;
}

std::size_t Mt19937_64::take_block(result_type* block) {
  if (index_ >= kStateWords) twist();
  const std::size_t first = index_;
  for (std::size_t k = first; k < kStateWords; ++k) block[k] = temper(state_[k]);
  index_ = kStateWords;
  return first;
}

void Mt19937_64::write(std::ostream& out) const {
  for (const result_type w : state_) out << w << ' ';
  out << index_;
}

void Mt19937_64::read(std::istream& in) {
  result_type words[kStateWords] = {};
  for (auto& w : words) {
    if (!(in >> w)) throw std::runtime_error("Mt19937_64::read: missing or non-numeric state word");
  }
  std::size_t index = 0;
  if (!(in >> index)) throw std::runtime_error("Mt19937_64::read: missing or non-numeric read index");
  if (index > kStateWords) throw std::runtime_error("Mt19937_64::read: read index past the state");
  std::copy(std::begin(words), std::end(words), std::begin(state_));
  index_ = index;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Rng Rng::split(std::uint64_t salt) const {
  return Rng(splitmix64(seed_ ^ splitmix64(salt)));
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

namespace {

// 128-layer ziggurat for the unnormalized density f(x) = exp(-x^2 / 2):
// R is the rightmost layer edge, V the common area of every layer (the
// bottom one includes the tail beyond R). Marsaglia & Tsang (2000).
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

/// Doornik's ZIGNOR tables: x[i] is the right edge of layer i (x[0] = V/f(R),
/// the virtual width of the bottom block; x[1] = R; x[128] = 0) and
/// r[i] = x[i+1] / x[i], the share of layer i that lies wholly under f.
struct ZigTables {
  double x[kZigLayers + 1];
  double r[kZigLayers];

  ZigTables() {
    double f = std::exp(-0.5 * kZigR * kZigR);
    x[0] = kZigV / f;
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kZigV / x[i - 1] + f));
      f = std::exp(-0.5 * x[i] * x[i]);
    }
    for (int i = 0; i < kZigLayers; ++i) r[i] = x[i + 1] / x[i];
  }
};

const ZigTables& zig_tables() {
  static const ZigTables tables;
  return tables;
}

/// Uniform in [0, 1) from the top 53 bits of an engine word.
double unit_closed_open(std::uint64_t w) { return static_cast<double>(w >> 11) * 0x1.0p-53; }

/// Uniform in (0, 1], safe to take the log of.
double unit_open_closed(std::uint64_t w) {
  return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

/// One ziggurat draw from `words`, a callable returning the engine's next
/// word: the engine itself, or a TemperedBlock over it. Both word sources
/// yield the same words in the same order, so both give the same value.
template <typename Words>
double ziggurat_draw(const ZigTables& z, Words& words) {
  for (;;) {
    // One word per attempt: the low 7 bits pick the layer, the top 53 bits
    // (disjoint from them) give the signed abscissa u in [-1, 1).
    const std::uint64_t w = words();
    const auto i = static_cast<int>(w & (kZigLayers - 1));
    const double u = 2.0 * unit_closed_open(w) - 1.0;
    if (std::fabs(u) < z.r[i]) return u * z.x[i];  // wholly under f
    if (i == 0) {
      // Bottom block beyond R: Marsaglia's exact tail algorithm.
      double x = 0.0, y = 0.0;
      do {
        x = -std::log(unit_open_closed(words())) / kZigR;
        y = -std::log(unit_open_closed(words()));
      } while (y + y < x * x);
      return u < 0.0 ? -(kZigR + x) : kZigR + x;
    }
    // Wedge between layers i and i+1: accept iff a uniform height in
    // [f(x_i), f(x_{i+1})] falls under f(x); both sides divided by f(x).
    const double x = u * z.x[i];
    const double f0 = std::exp(-0.5 * (z.x[i] * z.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (z.x[i + 1] * z.x[i + 1] - x * x));
    if (f0 + unit_closed_open(words()) * (f1 - f0) < 1.0) return x;
  }
}

/// Word source over whole tempered blocks of the engine: it tempers up to 312
/// words in one loop instead of one word per call, and hands the words it did
/// not read back to the engine when it goes out of scope. Construction twists
/// an engine whose block is spent, which changes its serialized state, so
/// build one only when at least one word will be read (that read would twist
/// anyway).
class TemperedBlock {
 public:
  explicit TemperedBlock(Mt19937_64& engine) : engine_(engine), pos_(engine.take_block(block_)) {}
  ~TemperedBlock() { engine_.unread_from(pos_); }
  TemperedBlock(const TemperedBlock&) = delete;
  TemperedBlock& operator=(const TemperedBlock&) = delete;

  std::uint64_t operator()() {
    if (pos_ == Mt19937_64::kStateWords) pos_ = engine_.take_block(block_);
    return block_[pos_++];
  }

 private:
  Mt19937_64& engine_;
  std::uint64_t block_[Mt19937_64::kStateWords] = {};
  std::size_t pos_;
};

}  // namespace

double Rng::ziggurat_normal() { return ziggurat_draw(zig_tables(), engine_); }

void Rng::add_ziggurat_noise(float* g, std::size_t n, double sigma) {
  if (n == 0) return;
  const ZigTables& z = zig_tables();
  TemperedBlock words(engine_);
  for (std::size_t i = 0; i < n; ++i) g[i] += static_cast<float>(sigma * ziggurat_draw(z, words));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::gamma(double shape) {
  std::gamma_distribution<double> dist(shape, 1.0);
  return dist(engine_);
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alpha) {
  std::vector<double> out(alpha.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = gamma(alpha[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    // All-gamma draws underflowed (tiny alpha); fall back to a one-hot draw,
    // which is the correct limit of Dirichlet as alpha -> 0.
    const auto hot = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(alpha.size()) - 1));
    std::fill(out.begin(), out.end(), 0.0);
    out[hot] = 1.0;
    return out;
  }
  for (auto& v : out) v /= total;
  return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  shuffle(idx);
  return idx;
}

std::string Rng::serialize() const {
  std::ostringstream out;
  out << seed_ << ' ';
  engine_.write(out);
  if (!out) throw std::runtime_error("Rng::serialize: stream failure");
  return out.str();
}

Rng Rng::deserialize(const std::string& state) {
  std::istringstream in(state);
  std::uint64_t seed = 0;
  if (!(in >> seed)) throw std::runtime_error("Rng::deserialize: missing or non-numeric seed");
  Rng rng(seed);
  rng.engine_.read(in);
  if (!(in >> std::ws).eof()) throw std::runtime_error("Rng::deserialize: trailing text");
  return rng;
}

void Rng::fill_normal(std::vector<float>& buf, double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  for (auto& v : buf) v = static_cast<float>(dist(engine_));
}

}  // namespace pdsl
