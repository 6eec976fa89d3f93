#pragma once
// Spectral analysis of mixing matrices. Assumption 3 of the paper requires
// max(|lambda_2|, |lambda_M|) <= sqrt(rho) < 1; rho drives both the step-size
// bound (Theorem 2, Eq. 31) and consensus speed. Eigenvalues are computed
// with the cyclic Jacobi method — exact enough at experiment sizes (M <= ~64).
// This is the only place an M x M matrix of the weights is ever built.

#include <vector>

#include "graph/mixing.hpp"

namespace pdsl::graph {

/// All eigenvalues of a symmetric matrix, sorted descending.
std::vector<double> symmetric_eigenvalues(const std::vector<std::vector<double>>& a,
                                          std::size_t max_sweeps = 64, double tol = 1e-12);

/// All eigenvalues of W, sorted descending (W densified here, O(M^2) memory).
std::vector<double> eigenvalues(const Metropolis& w);

struct SpectralInfo {
  double lambda1 = 0.0;       ///< largest eigenvalue (should be 1)
  double lambda2 = 0.0;       ///< second largest
  double lambda_min = 0.0;    ///< smallest
  double sqrt_rho = 0.0;      ///< max(|lambda2|, |lambda_min|)
  double rho = 0.0;           ///< sqrt_rho^2, the paper's rho
  double spectral_gap = 0.0;  ///< 1 - sqrt_rho
};

SpectralInfo analyze(const Metropolis& w);

}  // namespace pdsl::graph
