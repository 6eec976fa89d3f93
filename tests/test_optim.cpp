// The min-norm QP solver and simplex projection (DP-CGA's projection).

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "optim/qp.hpp"

using namespace pdsl;
using namespace pdsl::optim;

TEST(SimplexProjection, AlreadyOnSimplexIsFixed) {
  const auto p = project_to_simplex({0.2, 0.3, 0.5});
  EXPECT_NEAR(p[0], 0.2, 1e-12);
  EXPECT_NEAR(p[1], 0.3, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

TEST(SimplexProjection, ProjectsOntoSimplex) {
  Rng rng(1);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(7);
    for (auto& x : v) x = rng.normal(0.0, 3.0);
    const auto p = project_to_simplex(v);
    double total = 0.0;
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(SimplexProjection, DominantCoordinateWins) {
  const auto p = project_to_simplex({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(MinNorm, SingleGradientIsItself) {
  MinNormSolver solver;
  const std::vector<std::vector<float>> g = {{3.0f, 4.0f}};
  const auto res = solver.solve(g);
  EXPECT_NEAR(res.lambda[0], 1.0, 1e-9);
  EXPECT_NEAR(res.norm_sq, 25.0, 1e-6);
}

TEST(MinNorm, OpposingGradientsCancel) {
  MinNormSolver solver;
  const std::vector<std::vector<float>> g = {{1.0f, 0.0f}, {-1.0f, 0.0f}};
  const auto res = solver.solve(g);
  EXPECT_NEAR(res.lambda[0], 0.5, 1e-3);
  EXPECT_NEAR(res.norm_sq, 0.0, 1e-6);
}

TEST(MinNorm, AsymmetricOpposition) {
  // g1 = (2,0), g2 = (-1,0): min-norm point of the hull is 0 at lambda=(1/3,2/3).
  MinNormSolver solver;
  const auto res = solver.solve({{2.0f, 0.0f}, {-1.0f, 0.0f}});
  EXPECT_NEAR(res.lambda[0], 1.0 / 3.0, 1e-3);
  EXPECT_NEAR(res.norm_sq, 0.0, 1e-6);
}

TEST(MinNorm, OrthogonalGradients) {
  // Hull of (1,0) and (0,1): min-norm at (0.5, 0.5), norm^2 = 0.5.
  MinNormSolver solver;
  const auto res = solver.solve({{1.0f, 0.0f}, {0.0f, 1.0f}});
  EXPECT_NEAR(res.lambda[0], 0.5, 1e-3);
  EXPECT_NEAR(res.norm_sq, 0.5, 1e-4);
  EXPECT_TRUE(res.converged);
}

TEST(MinNorm, AlignedGradientsPickShortest) {
  // Both point the same way; hull minimum is the shorter vector.
  MinNormSolver solver;
  const auto res = solver.solve({{4.0f, 0.0f}, {1.0f, 0.0f}});
  EXPECT_NEAR(res.lambda[1], 1.0, 1e-2);
  EXPECT_NEAR(res.norm_sq, 1.0, 1e-2);
}

TEST(MinNorm, CombineMatchesLambda) {
  const std::vector<std::vector<float>> g = {{2.0f, 0.0f}, {0.0f, 2.0f}};
  const auto out = combine(g, {0.25, 0.75});
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], 1.5f);
  EXPECT_THROW(combine(g, {1.0}), std::invalid_argument);
}

TEST(MinNorm, GramValidation) {
  MinNormSolver solver;
  EXPECT_THROW(solver.solve({}), std::invalid_argument);
  EXPECT_THROW(solver.solve_gram({{1.0, 0.0}}), std::invalid_argument);
}
