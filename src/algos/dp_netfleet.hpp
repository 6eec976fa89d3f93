#pragma once
// DP-NET-FLEET baseline (Zhang et al. [14] + Gaussian mechanism, per the
// paper's Sec. VI-B). NET-FLEET handles heterogeneity with a recursive
// gradient-correction (gradient-tracking) variable y_i and runs several
// local updates between communication rounds:
//   local:  x_i <- x_i - gamma * y_i                    (K times, tracker-guided)
//   comm:   y_i <- sum_j w_ij yhat_j + g_i(x_i^{new}) - g_i(x_i^{old})
//           x_i <- sum_j w_ij xhat_j
// Privacy: the transmitted tracker yhat is built from clipped gradients and
// perturbed with the Gaussian mechanism before leaving the agent (the
// transmitted model is what the tracker already acted on, so the gradient
// path is the sensitive channel, mirroring the other DP baselines).

#include "algos/common.hpp"

namespace pdsl::algos {

class DpNetFleet final : public Algorithm {
 public:
  explicit DpNetFleet(const Env& env);
  [[nodiscard]] std::string name() const override { return "DP-NET-FLEET"; }
  void round_impl(std::size_t t) override;

 private:
  fleet::LazyMatrix tracker_;                  ///< y_i (COW rows share the zero vector)
  std::vector<std::vector<float>> prev_grad_;  ///< g_i at the previous round's model
  bool first_round_ = true;
};

}  // namespace pdsl::algos
