#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pdsl::graph {

std::vector<double> symmetric_eigenvalues(const std::vector<std::vector<double>>& input,
                                          std::size_t max_sweeps, double tol) {
  const std::size_t n = input.size();
  for (const auto& row : input) {
    if (row.size() != n) throw std::invalid_argument("symmetric_eigenvalues: non-square");
  }
  auto a = input;  // working copy; Jacobi rotations drive off-diagonals to 0

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += a[i][j] * a[i][j];
    }
    if (off < tol * tol) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::abs(a[p][q]) < tol) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k][p], akq = a[k][q];
          a[k][p] = c * akp - s * akq;
          a[k][q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p][k], aqk = a[q][k];
          a[p][k] = c * apk - s * aqk;
          a[q][k] = s * apk + c * aqk;
        }
      }
    }
  }

  std::vector<double> eig(n);
  for (std::size_t i = 0; i < n; ++i) eig[i] = a[i][i];
  std::sort(eig.rbegin(), eig.rend());
  return eig;
}

std::vector<double> eigenvalues(const Metropolis& w) {
  const std::size_t n = w.size();
  std::vector<std::vector<double>> dense(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) dense[i][j] = w(i, j);
  }
  return symmetric_eigenvalues(dense);
}

SpectralInfo analyze(const Metropolis& w) {
  const auto eig = eigenvalues(w);
  SpectralInfo info;
  info.lambda1 = eig.front();
  info.lambda2 = eig.size() > 1 ? eig[1] : eig[0];
  info.lambda_min = eig.back();
  info.sqrt_rho = std::max(std::abs(info.lambda2), std::abs(info.lambda_min));
  info.rho = info.sqrt_rho * info.sqrt_rho;
  info.spectral_gap = 1.0 - info.sqrt_rho;
  return info;
}

}  // namespace pdsl::graph
