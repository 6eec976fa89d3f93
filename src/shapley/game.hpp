#pragma once
// Cooperative game (S6, Definition 3). Players are indexed 0..n-1;
// coalitions are bitmasks (n <= 63). The characteristic function is
// expensive in PDSL (a validation-set evaluation per coalition, Eq. 16), so
// the game memoizes values — both the exact enumeration and Monte Carlo
// estimation revisit coalitions heavily.
//
// Estimators announce the coalitions they are about to need via prefetch();
// the game scores the unknown ones in chunks through one
// BatchCharacteristicFn, which may stack the coalition-average models into a
// single blocked GEMM per layer (sim::CoalitionBatchEvaluator) or simply
// loop. A coalition requested via value() that was never announced (the
// value-dependent truncated MC) is scored alone.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace pdsl::shapley {

/// Batched v(S): masks in, one value per mask out (same order). Masks are
/// non-empty, in range and pairwise distinct; v(emptyset) = 0 by
/// Definition 3 and is never requested. The implementation may evaluate the
/// masks jointly (stacked GEMM) or loop — either way each value must not
/// depend on which other masks share the call.
using BatchCharacteristicFn =
    std::function<std::vector<double>(const std::vector<std::uint64_t>& masks)>;

/// Memoizing coalition game over bitmask coalitions.
class Game {
 public:
  Game(std::size_t num_players, BatchCharacteristicFn batch_v);

  [[nodiscard]] std::size_t num_players() const { return n_; }

  /// Value of the coalition encoded in `mask` (bit j = player j present).
  double value(std::uint64_t mask);

  /// Number of distinct non-empty coalitions evaluated so far.
  [[nodiscard]] std::size_t evaluations() const { return memo_.size(); }

  /// These masks are about to be requested via value(): score the unknown
  /// ones now, in announcement order, in chunks of at most 512. Duplicates,
  /// empty and already-known masks are allowed; out-of-range masks are not.
  void prefetch(const std::vector<std::uint64_t>& masks);

  /// Members of a mask, ascending.
  [[nodiscard]] static std::vector<std::size_t> members(std::uint64_t mask);

  [[nodiscard]] std::uint64_t full_mask() const;

 private:
  void check_range(std::uint64_t mask) const;
  /// Score `masks` (unknown, distinct) in one call and memoize the values.
  void score(const std::vector<std::uint64_t>& masks);

  std::size_t n_;
  BatchCharacteristicFn batch_v_;
  std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace pdsl::shapley
