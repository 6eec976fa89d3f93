#pragma once
// Privacy-loss accounting across rounds. Theorem 1 gives a per-round
// (epsilon, delta) guarantee; the accountant composes rounds so experiments
// can report total privacy spend. Both naive (linear) composition and the
// advanced composition theorem (Dwork & Roth, Thm. 3.20) are provided.

#include <cstddef>

namespace pdsl::dp {

class PrivacyAccountant {
 public:
  PrivacyAccountant() = default;

  /// Record one mechanism invocation with a per-use (epsilon, delta).
  void record(double epsilon, double delta);

  /// Record `count` identical invocations.
  void record_rounds(double epsilon, double delta, std::size_t count);

  [[nodiscard]] std::size_t num_rounds() const { return rounds_; }

  /// Basic composition: epsilons and deltas add.
  [[nodiscard]] double basic_epsilon() const { return sum_epsilon_; }
  [[nodiscard]] double basic_delta() const { return sum_delta_; }

  /// Advanced composition for k identical (eps, delta) uses with slack
  /// delta_prime: total = eps * sqrt(2k ln(1/delta')) + k*eps*(e^eps - 1),
  /// at total delta = k*delta + delta'. Only valid when all recorded rounds
  /// used identical budgets (checked).
  [[nodiscard]] double advanced_epsilon(double delta_prime) const;

 private:
  std::size_t rounds_ = 0;
  double sum_epsilon_ = 0.0;
  double sum_delta_ = 0.0;
  double per_round_epsilon_ = -1.0;  // -1 until first record; -2 if heterogeneous
  double per_round_delta_ = -1.0;
};

}  // namespace pdsl::dp
