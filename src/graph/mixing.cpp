#include "graph/mixing.hpp"

#include <algorithm>
#include <utility>

namespace pdsl::graph {

namespace {
// Weights at or below this count as zero (support, omega_min).
constexpr double kZero = 1e-12;

double edge_weight(const Graph& g, std::size_t i, std::size_t j) {
  return 1.0 / (1.0 + static_cast<double>(std::max(g.degree(i), g.degree(j))));
}
}  // namespace

Metropolis::Metropolis(Graph g) : graph_(std::move(g)), diag_(graph_.size()) {
  // Accumulate the off-diagonal weights in ascending-neighbor order, then
  // complement: the diagonal's rounding is part of the golden fixtures.
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    double off = 0.0;
    for (std::size_t j : graph_.neighbors(i)) off += edge_weight(graph_, i, j);
    diag_[i] = 1.0 - off;
  }
}

double Metropolis::operator()(std::size_t i, std::size_t j) const {
  if (i == j) return diag_[i];
  if (!graph_.has_edge(i, j)) return 0.0;
  return edge_weight(graph_, i, j);
}

double Metropolis::min_positive_weight() const {
  double mn = 1.0;
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t j : graph_.closed_neighborhood(i)) {
      const double v = (*this)(i, j);
      if (v > kZero) mn = std::min(mn, v);
    }
  }
  return mn;
}

std::vector<std::size_t> Metropolis::support(std::size_t i) const {
  std::vector<std::size_t> out = graph_.closed_neighborhood(i);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](std::size_t j) { return !((*this)(i, j) > kZero); }),
            out.end());
  return out;
}

}  // namespace pdsl::graph
