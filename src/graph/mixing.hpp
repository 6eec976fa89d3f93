#pragma once
// Metropolis–Hastings mixing weights over a Graph, satisfying the paper's
// Assumption 3 (symmetric, doubly stochastic):
//   w_ij = 1 / (1 + max(deg_i, deg_j))    for edges (i,j)
//   w_ii = 1 - sum_{j != i} w_ij
// For the fully connected graph this reduces to w_ij = 1/M, matching the
// uniform averaging the paper implies. Besides its own copy of the graph,
// only the M diagonal entries are stored; off-diagonal weights are computed
// on demand from degrees, so the storage is O(M + E) and no M x M matrix
// exists.

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace pdsl::graph {

class Metropolis {
 public:
  explicit Metropolis(Graph g);

  [[nodiscard]] std::size_t size() const { return graph_.size(); }
  /// w_ij: the stored diagonal, the Metropolis weight on an edge, else 0.
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const;

  /// Smallest positive weight (the paper's omega_min, over j in M_i).
  [[nodiscard]] double min_positive_weight() const;

  /// Closed neighborhood under W: {j : w_ij > 0}, ascending (includes i when
  /// w_ii > 0).
  [[nodiscard]] std::vector<std::size_t> support(std::size_t i) const;

 private:
  Graph graph_;
  std::vector<double> diag_;
};

}  // namespace pdsl::graph
