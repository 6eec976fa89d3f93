#include "shapley/shapley.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pdsl::shapley {

namespace {

/// Append the coalition masks a permutation walk will request, in request
/// order: at each position, v(prefix + j) then v(prefix).
void append_walk_masks(const std::vector<std::size_t>& order,
                       std::vector<std::uint64_t>& out) {
  std::uint64_t prefix = 0;
  for (const std::size_t j : order) {
    out.push_back(prefix | (1ULL << j));
    out.push_back(prefix);
    prefix |= (1ULL << j);
  }
}

}  // namespace

std::vector<double> exact_shapley(Game& game) {
  const std::size_t n = game.num_players();
  if (n > 20) {
    throw std::invalid_argument("exact_shapley: too many players; use monte_carlo_shapley");
  }
  // Precompute the permutation weights |S|!(n-1-|S|)!/n! by coalition size.
  std::vector<double> weight(n);
  for (std::size_t s = 0; s < n; ++s) {
    // weight(s) = s! (n-1-s)! / n!  computed iteratively to avoid overflow.
    double w = 1.0 / static_cast<double>(n);
    // w = 1/(n * C(n-1, s))
    for (std::size_t k = 1; k <= s; ++k) {
      w *= static_cast<double>(k) / static_cast<double>(n - k);
    }
    weight[s] = w;
  }

  const std::uint64_t full = game.full_mask();
  {
    // Every non-empty coalition is needed; announce them all at once.
    std::vector<std::uint64_t> masks;
    masks.reserve(static_cast<std::size_t>(full));
    for (std::uint64_t mask = 1; mask <= full; ++mask) masks.push_back(mask);
    game.prefetch(masks);
  }

  std::vector<double> phi(n, 0.0);
  for (std::uint64_t mask = 0; mask <= full; ++mask) {
    const auto size = static_cast<std::size_t>(__builtin_popcountll(mask));
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) continue;  // S must exclude i
      const double marginal = game.value(mask | (1ULL << i)) - game.value(mask);
      phi[i] += weight[size] * marginal;
    }
  }
  return phi;
}

std::vector<double> monte_carlo_shapley(Game& game, std::size_t num_permutations,
                                        Rng& rng) {
  if (num_permutations == 0) {
    throw std::invalid_argument("monte_carlo_shapley: need at least one permutation");
  }
  const std::size_t n = game.num_players();
  // Sampling is value-independent: drawing all permutations up front consumes
  // the RNG stream exactly as the historical draw-as-you-go loop did, and
  // lets the whole evaluation set be announced in one prefetch.
  std::vector<std::vector<std::size_t>> orders;
  orders.reserve(num_permutations);
  for (std::size_t r = 0; r < num_permutations; ++r) orders.push_back(rng.permutation(n));
  {
    std::vector<std::uint64_t> masks;
    masks.reserve(2 * num_permutations * n);
    for (const auto& order : orders) append_walk_masks(order, masks);
    game.prefetch(masks);
  }

  std::vector<double> phi(n, 0.0);
  const double inv_r = 1.0 / static_cast<double>(num_permutations);
  for (const auto& order : orders) {
    std::uint64_t prefix = 0;  // Z_j(phi_r): predecessors of the current player
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t j = order[pos];
      const double with_j = game.value(prefix | (1ULL << j));
      const double without_j = game.value(prefix);
      phi[j] += (with_j - without_j) * inv_r;  // Eq. 26
      prefix |= (1ULL << j);
    }
  }
  return phi;
}

std::vector<double> truncated_monte_carlo_shapley(Game& game,
                                                  const TruncatedMcOptions& opts, Rng& rng) {
  if (opts.num_permutations == 0) {
    throw std::invalid_argument("truncated_monte_carlo_shapley: need permutations");
  }
  if (opts.tolerance < 0.0) {
    throw std::invalid_argument("truncated_monte_carlo_shapley: negative tolerance");
  }
  const std::size_t n = game.num_players();
  const double full_value = game.value(game.full_mask());
  std::vector<double> phi(n, 0.0);
  const double inv_r = 1.0 / static_cast<double>(opts.num_permutations);
  for (std::size_t r = 0; r < opts.num_permutations; ++r) {
    const auto order = rng.permutation(n);
    std::uint64_t prefix = 0;
    double prev_value = 0.0;
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (std::abs(full_value - prev_value) <= opts.tolerance) {
        break;  // truncate: remaining players get zero marginal this pass
      }
      const std::size_t j = order[pos];
      const double with_j = game.value(prefix | (1ULL << j));
      phi[j] += (with_j - prev_value) * inv_r;
      prev_value = with_j;
      prefix |= (1ULL << j);
    }
  }
  return phi;
}

std::vector<double> stratified_shapley(Game& game, std::size_t samples_per_stratum,
                                       Rng& rng) {
  if (samples_per_stratum == 0) {
    throw std::invalid_argument("stratified_shapley: need at least one sample per stratum");
  }
  const std::size_t n = game.num_players();
  // Pass 1 — draw every stratum sample exactly as the historical loop did
  // (identical RNG consumption), recording the (S+i, S) mask pairs.
  std::vector<std::uint64_t> with_masks, without_masks;
  with_masks.reserve(n * n * samples_per_stratum);
  without_masks.reserve(n * n * samples_per_stratum);
  std::vector<std::size_t> others;
  others.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    others.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(j);
    }
    for (std::size_t s = 0; s < n; ++s) {  // stratum: coalition size s
      for (std::size_t k = 0; k < samples_per_stratum; ++k) {
        rng.shuffle(others);
        std::uint64_t mask = 0;
        for (std::size_t t = 0; t < s; ++t) mask |= (1ULL << others[t]);
        with_masks.push_back(mask | (1ULL << i));
        without_masks.push_back(mask);
      }
    }
  }
  {
    std::vector<std::uint64_t> masks;
    masks.reserve(2 * with_masks.size());
    for (std::size_t t = 0; t < with_masks.size(); ++t) {
      masks.push_back(with_masks[t]);
      masks.push_back(without_masks[t]);
    }
    game.prefetch(masks);
  }

  // Pass 2 — fold the recorded samples in the original accumulation order.
  std::vector<double> phi(n, 0.0);
  std::size_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      double stratum = 0.0;
      for (std::size_t k = 0; k < samples_per_stratum; ++k, ++t) {
        stratum += game.value(with_masks[t]) - game.value(without_masks[t]);
      }
      acc += stratum / static_cast<double>(samples_per_stratum);
    }
    phi[i] = acc / static_cast<double>(n);
  }
  return phi;
}

AdaptiveMcResult adaptive_monte_carlo_shapley(Game& game, const AdaptiveMcOptions& opts,
                                              Rng& rng) {
  if (opts.max_permutations == 0) {
    throw std::invalid_argument("adaptive_monte_carlo_shapley: need a permutation budget");
  }
  if (opts.ci_z < 0.0) {
    throw std::invalid_argument("adaptive_monte_carlo_shapley: negative ci_z");
  }
  const std::size_t n = game.num_players();
  const std::size_t min_perms = std::min(opts.min_permutations, opts.max_permutations);

  // Welford accumulators over per-chunk samples (a chunk is one antithetic
  // pair, or a single permutation when antithetic is off / the budget is odd).
  std::vector<double> mean(n, 0.0), m2(n, 0.0);
  std::size_t chunks = 0;

  AdaptiveMcResult res;
  res.phi.assign(n, 0.0);

  std::vector<double> marginals(n, 0.0);
  const auto walk = [&](const std::vector<std::size_t>& order, double scale) {
    std::uint64_t prefix = 0;
    for (const std::size_t j : order) {
      const double with_j = game.value(prefix | (1ULL << j));
      const double without_j = game.value(prefix);
      marginals[j] += (with_j - without_j) * scale;
      prefix |= (1ULL << j);
    }
  };

  while (res.permutations_used < opts.max_permutations) {
    const auto order = rng.permutation(n);
    const bool pair =
        opts.antithetic && res.permutations_used + 2 <= opts.max_permutations;
    std::vector<std::size_t> reversed;
    if (pair) reversed.assign(order.rbegin(), order.rend());

    {
      std::vector<std::uint64_t> masks;
      masks.reserve(pair ? 4 * n : 2 * n);
      append_walk_masks(order, masks);
      if (pair) append_walk_masks(reversed, masks);
      game.prefetch(masks);
    }

    std::fill(marginals.begin(), marginals.end(), 0.0);
    const double scale = pair ? 0.5 : 1.0;
    walk(order, scale);
    if (pair) walk(reversed, scale);
    res.permutations_used += pair ? 2 : 1;

    ++chunks;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = marginals[i] - mean[i];
      mean[i] += d / static_cast<double>(chunks);
      m2[i] += d * (marginals[i] - mean[i]);
    }

    if (res.permutations_used >= min_perms && chunks >= 2 &&
        res.permutations_used < opts.max_permutations) {
      // Half-width of the CI on each player's mean marginal.
      const auto k = static_cast<double>(chunks);
      std::size_t top = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (mean[i] > mean[top]) top = i;
      }
      const auto hw = [&](std::size_t i) {
        return opts.ci_z * std::sqrt(m2[i] / (k - 1.0) / k);
      };
      bool separated = true;
      for (std::size_t i = 0; i < n && separated; ++i) {
        if (i == top) continue;
        separated = mean[top] - hw(top) > mean[i] + hw(i);
      }
      if (separated) {
        res.early_stopped = true;
        break;
      }
    }
  }

  res.phi = mean;
  return res;
}

}  // namespace pdsl::shapley
