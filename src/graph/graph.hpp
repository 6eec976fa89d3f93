#pragma once
// Communication graphs (S4). A Graph is an undirected graph over M agents
// stored as a CSR adjacency (two flat arrays, ascending neighbor ids), so a
// 1024-agent fleet never materializes an M x M matrix. The paper evaluates
// fully-connected, bipartite and ring graphs; star, torus and Erdős–Rényi
// serve ablations, and the circulant "regular" and random "geometric"
// generators serve fleet-scale runs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace pdsl::graph {

/// Inputs of the named generators (Graph::make); each field is read by one
/// generator.
struct GraphParams {
  Rng* rng = nullptr;      ///< "er": edge draws (required)
  std::size_t degree = 4;  ///< "regular": even degree below M
  double radius = 0.25;    ///< "geometric": initial connection radius
  std::uint64_t seed = 0;  ///< "geometric": node-position hash seed
};

class Graph {
 public:
  /// Build a named topology over `n` >= 2 nodes: full (aliases
  /// fully_connected, complete), ring, bipartite, star, torus, er (alias
  /// erdos_renyi), regular, geometric. Throws std::invalid_argument on an
  /// unknown name or parameters the generator rejects.
  static Graph make(const std::string& name, std::size_t n, const GraphParams& p = {});

  static Graph full(std::size_t n);
  /// Cycle i -- i+1 mod n (a single edge when n = 2).
  static Graph ring(std::size_t n);
  /// Complete bipartite between [0, n/2) and [n/2, n).
  static Graph bipartite(std::size_t n);
  /// Node 0 joined to every other node.
  static Graph star(std::size_t n);
  /// 2-D grid with wraparound on the most square factorization a*b = n
  /// (a <= b); requires a >= 2.
  static Graph torus(std::size_t n);
  /// Each pair i < j is an edge with probability `p` (one bernoulli draw per
  /// pair, in row-major order), redrawn until connected.
  static Graph erdos_renyi(std::size_t n, Rng& rng, double p = 0.4);
  /// Circulant k-regular graph: node i connects to i +- 1 .. i +- k/2 mod n.
  /// `degree` must be even, positive, and below n.
  static Graph regular(std::size_t n, std::size_t degree);
  /// Random geometric graph: nodes at hash-derived positions in the unit
  /// square, edges between pairs within `radius`. The radius is grown by 25%
  /// until the graph is connected (deterministic in (n, radius, seed)).
  static Graph geometric(std::size_t n, double radius, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] bool has_edge(std::size_t i, std::size_t j) const;
  [[nodiscard]] std::size_t degree(std::size_t i) const { return offsets_[i + 1] - offsets_[i]; }

  /// Neighbors of i *excluding* i itself, ascending. The mixing accumulation
  /// order depends on the ascending order for bit-exact reproducibility.
  [[nodiscard]] std::vector<std::size_t> neighbors(std::size_t i) const;

  /// Neighbors of i *including* i (the paper's M_i), ascending.
  [[nodiscard]] std::vector<std::size_t> closed_neighborhood(std::size_t i) const;

  [[nodiscard]] std::size_t num_edges() const { return cols_.size() / 2; }
  [[nodiscard]] bool is_connected() const;

 private:
  Graph(std::vector<std::size_t> offsets, std::vector<std::size_t> cols)
      : offsets_(std::move(offsets)), cols_(std::move(cols)) {}

  /// CSR from an undirected edge list (duplicate edges merged).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<std::size_t, std::size_t>>& edges);

  std::vector<std::size_t> offsets_;  ///< size n+1; row i spans [offsets_[i], offsets_[i+1])
  std::vector<std::size_t> cols_;     ///< ascending neighbor ids per row
};

}  // namespace pdsl::graph
