#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace pdsl {

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

}  // namespace

double Rng::ziggurat_normal() {
  const ZigTables& z = zig_tables();
  for (;;) {
    // One word per attempt: the low 7 bits pick the layer, the top 53 bits
    // (disjoint from them) give the signed abscissa u in [-1, 1).
    const std::uint64_t w = engine_();
    const auto i = static_cast<int>(w & (kZigLayers - 1));
    const double u = 2.0 * unit_closed_open(w) - 1.0;
    if (std::fabs(u) < z.r[i]) return u * z.x[i];  // wholly under f
    if (i == 0) {
      // Bottom block beyond R: Marsaglia's exact tail algorithm.
      double x = 0.0, y = 0.0;
      do {
        x = -std::log(unit_open_closed(engine_())) / kZigR;
        y = -std::log(unit_open_closed(engine_()));
      } while (y + y < x * x);
      return u < 0.0 ? -(kZigR + x) : kZigR + x;
    }
    // Wedge between layers i and i+1: accept iff a uniform height in
    // [f(x_i), f(x_{i+1})] falls under f(x); both sides divided by f(x).
    const double x = u * z.x[i];
    const double f0 = std::exp(-0.5 * (z.x[i] * z.x[i] - x * x));
    const double f1 = std::exp(-0.5 * (z.x[i + 1] * z.x[i + 1] - x * x));
    if (f0 + unit_closed_open(engine_()) * (f1 - f0) < 1.0) return x;
  }
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
  out << seed_ << ' ' << engine_;
  if (!out) throw std::runtime_error("Rng::serialize: stream failure");
  return out.str();
}

Rng Rng::deserialize(const std::string& state) {
  std::istringstream in(state);
  std::uint64_t seed = 0;
  in >> seed;
  Rng rng(seed);
  in >> rng.engine_;
  if (!in) throw std::runtime_error("Rng::deserialize: malformed state blob");
  return rng;
}

void Rng::fill_normal(std::vector<float>& buf, double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  for (auto& v : buf) v = static_cast<float>(dist(engine_));
}

}  // namespace pdsl
