#pragma once
// Shapley value computation: exact subset enumeration (Eq. 18, feasible for
// small neighborhoods), the paper's Monte Carlo permutation sampler
// (Algorithm 2) for larger ones, truncated and stratified variants, and the
// S-SHAP variance-adaptive sampler (antithetic permutation pairs + a
// confidence-interval early stop).
//
// All estimators take a `Game&` and announce the coalitions they are about
// to evaluate via Game::prefetch() wherever the evaluation set is known up
// front (value-independent sampling), so the game can score them in batches.
// Announcing changes only WHEN a coalition is scored, never its value or the
// order in which marginals are accumulated.

#include "common/rng.hpp"
#include "shapley/game.hpp"

namespace pdsl::shapley {

/// Exact Shapley values via Eq. 8/18:
///   phi_i = sum_{S subseteq N\{i}} |S|! (n-1-|S|)! / n! * (v(S+i) - v(S)).
/// Requires 2^n coalition evaluations; guarded to n <= 20.
std::vector<double> exact_shapley(Game& game);

/// Algorithm 2: R random permutations; phi_i accumulates the marginal
/// contribution of i to its predecessors in each permutation, divided by R.
/// Permutations are value-independent, so they are drawn up front (same RNG
/// stream as drawing them lazily) and prefetched as one batch.
std::vector<double> monte_carlo_shapley(Game& game, std::size_t num_permutations,
                                        Rng& rng);

/// Truncated Monte Carlo ("TMC-Shapley", Ghorbani & Zou style): scan each
/// permutation but stop appending players once the running coalition's value
/// is within `tolerance` of the grand coalition's — the remaining marginals
/// are credited as zero. Saves characteristic evaluations when v saturates.
/// Truncation is VALUE-dependent, so this estimator cannot announce its
/// coalitions up front and never batches beyond singleton fallbacks.
struct TruncatedMcOptions {
  std::size_t num_permutations = 8;
  double tolerance = 0.01;
};
std::vector<double> truncated_monte_carlo_shapley(Game& game,
                                                  const TruncatedMcOptions& opts, Rng& rng);

/// Stratified sampling estimator (Castro et al. [37]): for every player and
/// every coalition size s, average the marginal contribution over
/// `samples_per_stratum` uniformly drawn coalitions of size s that exclude
/// the player; the Shapley value is the mean across strata. Sampling is
/// value-independent: all coalitions are drawn first (identical RNG stream),
/// prefetched, then folded in the original accumulation order.
std::vector<double> stratified_shapley(Game& game, std::size_t samples_per_stratum,
                                       Rng& rng);

/// S-SHAP variance-adaptive Monte Carlo. Permutations are drawn in
/// antithetic pairs (a permutation and its reversal — their marginal noise is
/// negatively correlated, see DESIGN §12) and each pair's per-player marginal
/// average is one i.i.d. sample. After `min_permutations`, sampling stops as
/// soon as the top-ranked player's confidence interval (mean ± ci_z·s/√k) is
/// disjoint from every other player's — the π ranking only needs the ordering
/// to be separated, not the values to be converged — or when
/// `max_permutations` is exhausted.
struct AdaptiveMcOptions {
  std::size_t min_permutations = 4;   ///< floor before the CI check may stop
  std::size_t max_permutations = 32;  ///< hard sampling budget
  double ci_z = 2.0;                  ///< CI half-width multiplier (z-score)
  bool antithetic = true;             ///< pair each permutation with its reversal
};
struct AdaptiveMcResult {
  std::vector<double> phi;
  std::size_t permutations_used = 0;
  bool early_stopped = false;  ///< stopped by CI separation before the budget
};
AdaptiveMcResult adaptive_monte_carlo_shapley(Game& game, const AdaptiveMcOptions& opts,
                                              Rng& rng);

}  // namespace pdsl::shapley
