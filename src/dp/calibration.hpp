#pragma once
// Theorem-1 noise calibration. Given the mixing matrix, the clipping
// threshold C and a lower bound on the normalized Shapley share, computes the
// smallest sigma that guarantees (epsilon, delta)-DP per round of Algorithm 1:
//
//   sigma >= max_i  2C (1/w_min + sum_{j in M_i} 1/w_ij) sqrt(2 ln(1.25/delta))
//                   -------------------------------------------------------
//                   phi_hat_min * epsilon * sqrt(sum_{j in M_i} w_ij^{-2})

#include "graph/mixing.hpp"

namespace pdsl::dp {

struct Theorem1Params {
  double epsilon = 0.1;
  double delta = 1e-3;
  double clip = 1.0;          ///< C
  double phi_hat_min = 0.1;   ///< lower bound on phî_ij / sum_k phî_ik (in (0, 1])
};

/// Per-agent sigma bound (the expression inside Theorem 1's max).
double theorem1_sigma_for_agent(const graph::Metropolis& w, std::size_t agent,
                                const Theorem1Params& p);

/// The Theorem-1 bound: max over agents.
double theorem1_sigma(const graph::Metropolis& w, const Theorem1Params& p);

/// Effective L2 sensitivity bound from the Theorem-1 proof (Eq. 41):
/// Delta_2 q <= 2C/w_min + sum_{j in M_i} 2C/w_ij (for the worst agent).
double theorem1_sensitivity(const graph::Metropolis& w, double clip);

}  // namespace pdsl::dp
