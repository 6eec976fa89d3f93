// Communication graphs, Metropolis weights (Assumption 3) and spectral
// analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/mixing.hpp"
#include "graph/spectral.hpp"

using namespace pdsl;
using namespace pdsl::graph;

namespace {

/// y = W x over the closed neighborhoods.
std::vector<double> mix(const Metropolis& w, const std::vector<double>& x) {
  std::vector<double> y(w.size(), 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j : w.support(i)) y[i] += w(i, j) * x[j];
  }
  return y;
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

TEST(Topology, FullyConnectedStructure) {
  const auto t = Graph::full(6);
  EXPECT_EQ(t.num_edges(), 15u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(t.degree(i), 5u);
  EXPECT_EQ(t.closed_neighborhood(2).size(), 6u);
}

TEST(Topology, RingStructure) {
  const auto t = Graph::ring(8);
  EXPECT_EQ(t.num_edges(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.degree(i), 2u);
  EXPECT_TRUE(t.has_edge(0, 7));
  EXPECT_FALSE(t.has_edge(0, 4));
  EXPECT_EQ(Graph::ring(2).num_edges(), 1u);  // the wraparound edge is the same edge
}

TEST(Topology, BipartiteStructure) {
  const auto t = Graph::bipartite(10);
  // K_{5,5}: within-side no edges, across-side all edges.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_FALSE(t.has_edge(i, j));
      }
      EXPECT_TRUE(t.has_edge(i, 5 + j));
    }
  }
}

TEST(Topology, StarAndTorus) {
  const auto star = Graph::star(7);
  EXPECT_EQ(star.degree(0), 6u);
  EXPECT_EQ(star.degree(3), 1u);
  const auto torus = Graph::torus(9);  // 3x3
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(torus.degree(i), 4u);
}

TEST(Topology, ErdosRenyiIsConnected) {
  Rng rng(3);
  const auto t = Graph::erdos_renyi(12, rng, 0.3);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, ClosedNeighborhoodIsAscendingAndIncludesSelf) {
  const auto t = Graph::star(5);
  EXPECT_EQ(t.closed_neighborhood(0), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(t.closed_neighborhood(3), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(t.neighbors(3), (std::vector<std::size_t>{0}));
}

TEST(Topology, RegularGeneratorProperties) {
  const auto g = Graph::regular(12, 4);
  ASSERT_EQ(g.size(), 12u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.num_edges(), 12u * 4u / 2u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.degree(i), 4u);
    for (const auto j : g.neighbors(i)) {
      EXPECT_TRUE(g.has_edge(j, i)) << "asymmetric edge " << i << "," << j;
    }
  }
  EXPECT_THROW(Graph::regular(12, 3), std::invalid_argument);  // odd
  EXPECT_THROW(Graph::regular(12, 0), std::invalid_argument);
  EXPECT_THROW(Graph::regular(4, 4), std::invalid_argument);  // >= n
}

TEST(Topology, GeometricGeneratorConnectedAndDeterministic) {
  const auto a = Graph::geometric(32, 0.05, 7);
  const auto b = Graph::geometric(32, 0.05, 7);
  EXPECT_TRUE(a.is_connected());  // radius auto-grows until connected
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.neighbors(i), b.neighbors(i));
  EXPECT_THROW(Graph::geometric(8, 0.0, 7), std::invalid_argument);
}

TEST(Topology, NamesAndAliases) {
  const auto same = [](const Graph& a, const Graph& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.neighbors(i) != b.neighbors(i)) return false;
    }
    return true;
  };
  EXPECT_TRUE(same(Graph::make("full", 5), Graph::full(5)));
  EXPECT_TRUE(same(Graph::make("fully_connected", 5), Graph::full(5)));
  EXPECT_TRUE(same(Graph::make("complete", 5), Graph::full(5)));
  Rng r1(9), r2(9);
  EXPECT_TRUE(same(Graph::make("erdos_renyi", 8, {&r1}), Graph::make("er", 8, {&r2})));
  EXPECT_THROW(Graph::make("hypercube", 5), std::invalid_argument);
  EXPECT_THROW(Graph::make("er", 5), std::invalid_argument);  // no rng
  EXPECT_THROW(Graph::make("ring", 1), std::invalid_argument);
  EXPECT_THROW(Graph::make("torus", 7), std::invalid_argument);  // prime: no grid
}

// ---- Generator pins: (name, M, seed) -> FNV-64 of the CSR rows (degree then
// ascending neighbors, row by row, followed by the generator Rng's next
// engine word, which pins the draws the generator consumed) and FNV-64 of the
// bits of every w_ij over the full M x M grid. Every run's graph and weights,
// and so every golden fixture, derive from these generators: the values must
// never move. `degree` is read by "regular" only. ----

struct GeneratorPin {
  const char* name;
  std::size_t m;
  std::uint64_t seed;
  std::size_t degree;
  std::uint64_t rows_fnv;
  std::uint64_t weights_fnv;
};

constexpr GeneratorPin kGeneratorPins[] = {
    {"full", 2, 1, 0, 0xc4581f413f9e8757ULL, 0x955eb25404f02b65ULL},
    {"full", 3, 1, 0, 0x8e87a2974c723f28ULL, 0x66999324933b63e0ULL},
    {"full", 8, 1, 0, 0xd6954a6399691aa6ULL, 0xe99f7efbfd931725ULL},
    {"full", 12, 1, 0, 0x751708a8a42376e6ULL, 0x3cbf019a4dd4665dULL},
    {"ring", 2, 1, 0, 0xc4581f413f9e8757ULL, 0x955eb25404f02b65ULL},
    {"ring", 3, 1, 0, 0x8e87a2974c723f28ULL, 0x66999324933b63e0ULL},
    {"ring", 8, 1, 0, 0xc93dc0f68a466126ULL, 0x3990f65d927b445dULL},
    {"ring", 12, 1, 0, 0xc817ff59fe15e266ULL, 0xe5d3015dee81bfd5ULL},
    {"bipartite", 2, 1, 0, 0xc4581f413f9e8757ULL, 0x955eb25404f02b65ULL},
    {"bipartite", 3, 1, 0, 0x665c7d38aa481e17ULL, 0x3940e6b4c4a24020ULL},
    {"bipartite", 7, 1, 0, 0x7feefa49f47b4786ULL, 0x298ec4b3b0551ddaULL},
    {"bipartite", 8, 1, 0, 0x3d959c82ed930e26ULL, 0xb8331b546b2b1b15ULL},
    {"bipartite", 12, 1, 0, 0x968a27f887136866ULL, 0x5e88d250390fb2f5ULL},
    {"star", 2, 1, 0, 0xc4581f413f9e8757ULL, 0x955eb25404f02b65ULL},
    {"star", 3, 1, 0, 0x665c7d38aa481e17ULL, 0x3940e6b4c4a24020ULL},
    {"star", 8, 1, 0, 0xc176ea75eb38f684ULL, 0x4478aa7155850a29ULL},
    {"star", 12, 1, 0, 0xfc820c574f87fe90ULL, 0x8396df22302fa7e8ULL},
    {"torus", 8, 1, 0, 0x4ff1e9278be269a6ULL, 0x1f3dfc2b46725125ULL},
    {"torus", 9, 1, 0, 0x29606e1755126702ULL, 0xf969f8643cda306eULL},
    {"torus", 12, 1, 0, 0x6a20983ead688b26ULL, 0x5c6e8792898897edULL},
    {"er", 2, 1, 0, 0x5f09042cfdba1ccaULL, 0x955eb25404f02b65ULL},
    {"er", 2, 7, 0, 0x21b608e1b7b27a56ULL, 0x955eb25404f02b65ULL},
    {"er", 3, 1, 0, 0x0dfe724f742f2f07ULL, 0x3940e6b4c4a24020ULL},
    {"er", 3, 7, 0, 0xc4bd5220b03b2903ULL, 0x11430449b14f7fe0ULL},
    {"er", 8, 1, 0, 0x35746a8555bb79acULL, 0xc0b493c97bab7826ULL},
    {"er", 8, 7, 0, 0xd6522688ef467883ULL, 0x3df56aab88d1cd75ULL},
    {"er", 12, 1, 0, 0xe5259eabd9fddb6bULL, 0xdbbaf7f8dd190c2dULL},
    {"er", 12, 7, 0, 0xb2c00a2f754e9787ULL, 0xb72a4c11fff036d3ULL},
    {"regular", 3, 1, 2, 0x8e87a2974c723f28ULL, 0x66999324933b63e0ULL},
    {"regular", 8, 1, 2, 0xc93dc0f68a466126ULL, 0x3990f65d927b445dULL},
    {"regular", 8, 1, 4, 0xb40f62feffc50b66ULL, 0xf37b6b3fa0c48515ULL},
    {"regular", 12, 1, 2, 0xc817ff59fe15e266ULL, 0xe5d3015dee81bfd5ULL},
    {"regular", 12, 1, 4, 0xafe780a6c4edede6ULL, 0x042829c5644e5a0dULL},
    {"geometric", 2, 1, 0, 0xc4581f413f9e8757ULL, 0x955eb25404f02b65ULL},
    {"geometric", 2, 7, 0, 0x7faf6b67e38ffe61ULL, 0x955eb25404f02b65ULL},
    {"geometric", 3, 1, 0, 0xa4e04487a02f3851ULL, 0x11430449b14f7fe0ULL},
    {"geometric", 3, 7, 0, 0xfbb0ec3ed79dcb36ULL, 0x66999324933b63e0ULL},
    {"geometric", 8, 1, 0, 0xeccdbebea25a8446ULL, 0xce14acc4661dc139ULL},
    {"geometric", 8, 7, 0, 0x27959cb13250ea2bULL, 0xc92039ceb8be50f4ULL},
    {"geometric", 12, 1, 0, 0x5781d8191201ecf0ULL, 0x88e929625c21095fULL},
    {"geometric", 12, 7, 0, 0x6ebed78ae5a764ccULL, 0x0adebc41c5824bd7ULL},
};

TEST(GraphGenerators, PinnedEdgeSetsWeightsAndDraws) {
  for (const GeneratorPin& pin : kGeneratorPins) {
    SCOPED_TRACE(std::string(pin.name) + " M=" + std::to_string(pin.m) +
                 " seed=" + std::to_string(pin.seed));
    Rng rng(pin.seed);
    GraphParams p;
    p.rng = &rng;
    p.degree = pin.degree;
    p.seed = pin.seed;
    const Graph g = Graph::make(pin.name, pin.m, p);
    const Metropolis w(g);
    std::uint64_t rows = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < g.size(); ++i) {
      const auto nbrs = g.neighbors(i);
      fnv_u64(rows, nbrs.size());
      for (std::size_t j : nbrs) fnv_u64(rows, j);
    }
    fnv_u64(rows, rng.engine()());
    std::uint64_t weights = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < pin.m; ++i) {
      for (std::size_t j = 0; j < pin.m; ++j) {
        const double v = w(i, j);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        fnv_u64(weights, bits);
      }
    }
    EXPECT_EQ(rows, pin.rows_fnv);
    EXPECT_EQ(weights, pin.weights_fnv);
  }
}

// ---- Property sweep: every (topology, size) yields symmetric, doubly
// stochastic Metropolis weights with a spectral gap (Assumption 3). ----

class MixingProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(MixingProperty, MetropolisSatisfiesAssumption3) {
  const auto& [name, m] = GetParam();
  Rng rng(42);
  const auto w = Metropolis(Graph::make(name, m, {&rng}));
  for (std::size_t i = 0; i < m; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_GE(w(i, j), 0.0);
      EXPECT_EQ(w(i, j), w(j, i)) << i << "," << j;
      row += w(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-9) << "row " << i;
  }
  EXPECT_GT(w.min_positive_weight(), 0.0);

  const auto info = analyze(w);
  EXPECT_NEAR(info.lambda1, 1.0, 1e-8);
  EXPECT_LT(info.sqrt_rho, 1.0) << "connected graph must mix";
  EXPECT_GE(info.rho, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, MixingProperty,
    ::testing::Combine(::testing::Values("full", "ring", "bipartite", "star", "torus", "er",
                                         "geometric"),
                       ::testing::Values(std::size_t{4}, std::size_t{6}, std::size_t{10},
                                         std::size_t{15}, std::size_t{20})));

// The circulant generator's default degree 4 needs M > 4.
INSTANTIATE_TEST_SUITE_P(Regular, MixingProperty,
                         ::testing::Combine(::testing::Values("regular"),
                                            ::testing::Values(std::size_t{6}, std::size_t{10},
                                                              std::size_t{15}, std::size_t{20})));

TEST(Mixing, FullyConnectedMetropolisIsUniform) {
  const auto w = Metropolis(Graph::full(10));
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) EXPECT_NEAR(w(i, j), 0.1, 1e-12);
  }
}

TEST(Mixing, SupportAndOmegaMinMatchTheWeights) {
  // Star over 5: every edge weighs 1/5, each leaf keeps 4/5 on itself and
  // the hub keeps 1 - 4 * (1/5); leaves share no edge.
  const auto w = Metropolis(Graph::star(5));
  EXPECT_EQ(w.support(0), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(w.support(2), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(w(2, 3), 0.0);
  double mn = 1.0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (w(i, j) > 0.0) mn = std::min(mn, w(i, j));
    }
  }
  EXPECT_EQ(w.min_positive_weight(), mn);
}

TEST(Mixing, ApplyPreservesMeanAndContracts) {
  const auto w = Metropolis(Graph::ring(8));
  std::vector<double> x = {8, -3, 2, 7, -1, 0, 4, -5};
  const double mean0 = 1.5;  // sum = 12, /8
  auto spread = [&](const std::vector<double>& v) {
    double s = 0.0;
    for (double u : v) s += (u - mean0) * (u - mean0);
    return s;
  };
  const double before = spread(x);
  auto y = mix(w, x);
  double mean1 = 0.0;
  for (double u : y) mean1 += u;
  mean1 /= 8.0;
  EXPECT_NEAR(mean1, mean0, 1e-9);
  EXPECT_LT(spread(y), before);
}

TEST(Spectral, JacobiAgreesWithKnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const auto eig = symmetric_eigenvalues({{2, 1}, {1, 2}});
  EXPECT_NEAR(eig[0], 3.0, 1e-9);
  EXPECT_NEAR(eig[1], 1.0, 1e-9);
}

TEST(Spectral, FullyConnectedHasRhoZero) {
  const auto info = analyze(Metropolis(Graph::full(12)));
  EXPECT_NEAR(info.rho, 0.0, 1e-9);
  EXPECT_NEAR(info.spectral_gap, 1.0, 1e-6);
}

TEST(Spectral, RingMixesSlowerThanFull) {
  const auto full = analyze(Metropolis(Graph::full(10)));
  const auto ring = analyze(Metropolis(Graph::ring(10)));
  const auto bip = analyze(Metropolis(Graph::bipartite(10)));
  EXPECT_GT(ring.rho, bip.rho);
  EXPECT_GT(bip.rho, full.rho - 1e-12);
}

TEST(Spectral, LargerRingsMixSlower) {
  double prev = 0.0;
  for (std::size_t n : {6, 10, 16, 24}) {
    const auto info = analyze(Metropolis(Graph::ring(n)));
    EXPECT_GT(info.rho, prev);
    prev = info.rho;
  }
}
