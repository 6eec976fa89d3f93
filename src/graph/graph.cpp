#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace pdsl::graph {

namespace {

using EdgeList = std::vector<std::pair<std::size_t, std::size_t>>;

void require_two_nodes(std::size_t n, const char* who) {
  if (n < 2) {
    throw std::invalid_argument(std::string(who) + ": need at least 2 agents, got " +
                                std::to_string(n));
  }
}

std::pair<std::size_t, std::size_t> torus_dims(std::size_t n) {
  // Most square factorization a*b = n with a <= b.
  for (std::size_t a = static_cast<std::size_t>(std::sqrt(static_cast<double>(n))); a >= 1; --a) {
    if (n % a == 0) return {a, n / a};
  }
  return {1, n};
}

}  // namespace

Graph Graph::make(const std::string& name, std::size_t n, const GraphParams& p) {
  Graph g = [&] {
    if (name == "full" || name == "fully_connected" || name == "complete") return full(n);
    if (name == "ring") return ring(n);
    if (name == "bipartite") return bipartite(n);
    if (name == "star") return star(n);
    if (name == "torus") return torus(n);
    if (name == "er" || name == "erdos_renyi") {
      if (p.rng == nullptr) throw std::invalid_argument("erdos_renyi: rng required");
      return erdos_renyi(n, *p.rng);
    }
    if (name == "regular") return regular(n, p.degree);
    if (name == "geometric") return geometric(n, p.radius, p.seed);
    throw std::invalid_argument("Graph::make: unknown topology '" + name + "'");
  }();
  if (!g.is_connected()) throw std::logic_error("Graph::make produced a disconnected graph");
  return g;
}

Graph Graph::from_edges(std::size_t n, const EdgeList& edges) {
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::size_t> cols;
  cols.reserve(2 * edges.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(adj[i].begin(), adj[i].end());
    adj[i].erase(std::unique(adj[i].begin(), adj[i].end()), adj[i].end());
    cols.insert(cols.end(), adj[i].begin(), adj[i].end());
    offsets[i + 1] = cols.size();
  }
  return Graph(std::move(offsets), std::move(cols));
}

Graph Graph::full(std::size_t n) {
  require_two_nodes(n, "full");
  EdgeList edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return from_edges(n, edges);
}

Graph Graph::ring(std::size_t n) {
  require_two_nodes(n, "ring");
  EdgeList edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return from_edges(n, edges);
}

Graph Graph::bipartite(std::size_t n) {
  require_two_nodes(n, "bipartite");
  const std::size_t half = n / 2;
  EdgeList edges;
  edges.reserve(half * (n - half));
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = half; j < n; ++j) edges.emplace_back(i, j);
  }
  return from_edges(n, edges);
}

Graph Graph::star(std::size_t n) {
  require_two_nodes(n, "star");
  EdgeList edges;
  edges.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) edges.emplace_back(0, i);
  return from_edges(n, edges);
}

Graph Graph::torus(std::size_t n) {
  require_two_nodes(n, "torus");
  const auto [a, b] = torus_dims(n);
  if (a < 2) throw std::invalid_argument("torus: M must factor into a grid (a >= 2)");
  EdgeList edges;
  edges.reserve(2 * n);
  for (std::size_t r = 0; r < a; ++r) {
    for (std::size_t c = 0; c < b; ++c) {
      const std::size_t u = r * b + c;
      edges.emplace_back(u, r * b + (c + 1) % b);
      edges.emplace_back(u, ((r + 1) % a) * b + c);
    }
  }
  return from_edges(n, edges);
}

Graph Graph::erdos_renyi(std::size_t n, Rng& rng, double p) {
  require_two_nodes(n, "erdos_renyi");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    EdgeList edges;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(p)) edges.emplace_back(i, j);
      }
    }
    Graph candidate = from_edges(n, edges);
    if (candidate.is_connected()) return candidate;
  }
  throw std::runtime_error("erdos_renyi: failed to sample a connected graph");
}

Graph Graph::regular(std::size_t n, std::size_t degree) {
  if (degree == 0 || degree % 2 != 0) {
    throw std::invalid_argument("regular: degree must be even and positive, got " +
                                std::to_string(degree));
  }
  if (degree >= n) {
    throw std::invalid_argument("regular: degree " + std::to_string(degree) +
                                " must be below the number of nodes " + std::to_string(n));
  }
  EdgeList edges;
  edges.reserve(n * degree / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 1; d <= degree / 2; ++d) edges.emplace_back(i, (i + d) % n);
  }
  return from_edges(n, edges);
}

Graph Graph::geometric(std::size_t n, double radius, std::uint64_t seed) {
  require_two_nodes(n, "geometric");
  if (!(radius > 0.0)) throw std::invalid_argument("geometric: radius must be positive");
  constexpr double kInv = 1.0 / 18446744073709551616.0;  // 2^-64
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(splitmix64(seed ^ splitmix64(0x6E0D0A11ULL ^ i))) * kInv;
    ys[i] = static_cast<double>(splitmix64(seed ^ splitmix64(0xBEE5BEE5ULL ^ i))) * kInv;
  }
  double r = radius;
  for (int attempt = 0; attempt < 32; ++attempt) {
    EdgeList edges;
    const double r2 = r * r;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dx = xs[i] - xs[j];
        const double dy = ys[i] - ys[j];
        if (dx * dx + dy * dy <= r2) edges.emplace_back(i, j);
      }
    }
    Graph g = from_edges(n, edges);
    if (g.is_connected()) return g;
    r *= 1.25;
  }
  throw std::runtime_error("geometric: failed to connect after 32 growths");
}

bool Graph::has_edge(std::size_t i, std::size_t j) const {
  const auto first = cols_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]);
  const auto last = cols_.begin() + static_cast<std::ptrdiff_t>(offsets_[i + 1]);
  return std::binary_search(first, last, j);
}

std::vector<std::size_t> Graph::neighbors(std::size_t i) const {
  return {cols_.begin() + static_cast<std::ptrdiff_t>(offsets_[i]),
          cols_.begin() + static_cast<std::ptrdiff_t>(offsets_[i + 1])};
}

std::vector<std::size_t> Graph::closed_neighborhood(std::size_t i) const {
  std::vector<std::size_t> out;
  out.reserve(degree(i) + 1);
  bool placed = false;
  for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
    if (!placed && cols_[k] > i) {
      out.push_back(i);
      placed = true;
    }
    out.push_back(cols_[k]);
  }
  if (!placed) out.push_back(i);
  return out;
}

bool Graph::is_connected() const {
  const std::size_t n = size();
  std::vector<unsigned char> seen(n, 0);
  std::queue<std::size_t> q;
  q.push(0);
  seen[0] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const std::size_t u = q.front();
    q.pop();
    for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      const std::size_t v = cols_[k];
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == n;
}

}  // namespace pdsl::graph
