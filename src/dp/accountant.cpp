#include "dp/accountant.hpp"

#include <cmath>
#include <stdexcept>

namespace pdsl::dp {

void PrivacyAccountant::record(double epsilon, double delta) {
  if (epsilon <= 0.0 || delta < 0.0 || delta >= 1.0) {
    throw std::invalid_argument("PrivacyAccountant::record: bad budget");
  }
  ++rounds_;
  sum_epsilon_ += epsilon;
  sum_delta_ += delta;
  if (per_round_epsilon_ == -1.0) {
    per_round_epsilon_ = epsilon;
    per_round_delta_ = delta;
  } else if (per_round_epsilon_ != epsilon || per_round_delta_ != delta) {
    per_round_epsilon_ = -2.0;  // heterogeneous; advanced composition unavailable
  }
}

void PrivacyAccountant::record_rounds(double epsilon, double delta, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) record(epsilon, delta);
}

double PrivacyAccountant::advanced_epsilon(double delta_prime) const {
  if (delta_prime <= 0.0 || delta_prime >= 1.0) {
    throw std::invalid_argument("advanced_epsilon: delta_prime in (0,1)");
  }
  if (rounds_ == 0) return 0.0;
  if (per_round_epsilon_ < 0.0) {
    throw std::logic_error("advanced_epsilon: rounds had heterogeneous budgets");
  }
  const double k = static_cast<double>(rounds_);
  const double eps = per_round_epsilon_;
  return eps * std::sqrt(2.0 * k * std::log(1.0 / delta_prime)) +
         k * eps * (std::exp(eps) - 1.0);
}

}  // namespace pdsl::dp
