// Unit tests for the Tensor substrate and numeric kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

using namespace pdsl;

TEST(Tensor, ShapeAndNumel) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, ConstructionValidatesDataSize) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t(Shape{5}, 2.5f);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(t[i], 2.5f);
  t.zero();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, At2RowMajor) {
  Tensor t(Shape{2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  EXPECT_THROW(t.at2(2, 0), std::out_of_range);
}

TEST(Tensor, At4Indexing) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
  EXPECT_THROW(t.at4(0, 3, 0, 0), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  t.reshape(Shape{2, 3});
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(t.at2(1, 0), 4.0f);
  EXPECT_THROW(t.reshape(Shape{4, 2}), std::invalid_argument);
  EXPECT_EQ(t.shape(), (Shape{2, 3}));  // a refused reshape changes nothing
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  a += b;
  EXPECT_FLOAT_EQ(a[2], 9.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a[0], 10.0f);
  Tensor c(Shape{4});
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Ops, MatmulKnownValues) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeChecks) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposedMatmulAgreesWithExplicit) {
  // A: 3x2, B: 3x4 -> A^T B : 2x4
  Tensor a(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 4}, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
  const Tensor c = matmul_transpose_a(a, b);
  // Explicit transpose.
  Tensor at(Shape{2, 3}, {1, 3, 5, 2, 4, 6});
  const Tensor expect = matmul(at, b);
  ASSERT_EQ(c.shape(), expect.shape());
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], expect[i]);
}

TEST(Ops, SoftmaxRowsIsNormalizedAndStable) {
  Tensor logits(Shape{2, 3}, {1000.0f, 1000.0f, 1000.0f, 1.0f, 2.0f, 3.0f});
  const Tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 3; ++c) total += p.at2(r, c);
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
  EXPECT_NEAR(p.at2(0, 0), 1.0 / 3.0, 1e-5);  // large but equal logits
  EXPECT_GT(p.at2(1, 2), p.at2(1, 1));
}

TEST(Ops, ArgmaxRow) {
  Tensor t(Shape{2, 3}, {1, 5, 2, 0, -1, 4});
  EXPECT_EQ(argmax_row(t, 0), 1u);
  EXPECT_EQ(argmax_row(t, 1), 2u);
}
