#include "src/nn/matrix.h"

#include <gtest/gtest.h>

namespace lce {
namespace nn {
namespace {

Matrix Fill(int rows, int cols, std::vector<float> values) {
  return Matrix::FromFlat(rows, cols, values);
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix a = Fill(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Fill(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, TransposedProductsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Matrix a = Matrix::Randn(4, 3, 1.0f, &rng);
  Matrix b = Matrix::Randn(4, 5, 1.0f, &rng);
  // A^T * B via MatMulTransA must equal manual transpose.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at.At(j, i) = a.At(i, j);
  }
  Matrix expected = MatMul(at, b);
  Matrix got = MatMulTransA(a, b);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(got.At(i, j), expected.At(i, j), 1e-5);
    }
  }
}

TEST(MatrixTest, MatMulTransBMatchesDefinition) {
  Rng rng(2);
  Matrix a = Matrix::Randn(2, 3, 1.0f, &rng);
  Matrix b = Matrix::Randn(4, 3, 1.0f, &rng);
  Matrix got = MatMulTransB(a, b);  // 2x4
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      float dot = 0;
      for (int k = 0; k < 3; ++k) dot += a.At(i, k) * b.At(j, k);
      EXPECT_NEAR(got.At(i, j), dot, 1e-5);
    }
  }
}

TEST(MatrixTest, AddBiasRowBroadcasts) {
  Matrix x = Fill(2, 2, {1, 2, 3, 4});
  Matrix b = Fill(1, 2, {10, 20});
  AddBiasRow(&x, b);
  EXPECT_FLOAT_EQ(x.At(0, 0), 11);
  EXPECT_FLOAT_EQ(x.At(1, 1), 24);
}

TEST(MatrixTest, AccumulateRowsAddsEveryRow) {
  Matrix x = Fill(2, 3, {1, 2, 3, 3, 4, 5});
  Matrix sum = Fill(1, 3, {10, 20, 30});
  AccumulateRows(x, &sum);
  EXPECT_FLOAT_EQ(sum.At(0, 0), 14);
  EXPECT_FLOAT_EQ(sum.At(0, 1), 26);
  EXPECT_FLOAT_EQ(sum.At(0, 2), 38);
}

// Resize keeps the leading rows when cols() is unchanged, zeroes added rows
// and every element on a new cols(), keeps padding zero, and never moves a
// buffer reserved for the new shape (so a lane reshaping a reserved
// workspace matrix allocates nothing).
TEST(MatrixTest, ResizeKeepsLeadingRowsAndReservedBuffer) {
  Matrix m = Fill(3, 2, {1, 2, 3, 4, 5, 6});
  m.Reserve(8, 20);
  const float* buffer = m.raw();
  m.Resize(2, 2);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_FLOAT_EQ(m.At(1, 1), 4);
  m.Resize(5, 2);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1);
  EXPECT_FLOAT_EQ(m.At(4, 1), 0);
  m.Resize(8, 20);
  EXPECT_EQ(m.ld(), 32);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.ld(); ++c) EXPECT_EQ(m.RowPtr(r)[c], 0.0f);
  }
  EXPECT_EQ(m.raw(), buffer);
}

TEST(MatrixTest, MatMulShapeMismatchAborts) {
  Matrix a(2, 3);
  Matrix bad(2, 2);
  EXPECT_DEATH(MatMul(a, bad), "shape mismatch");
}

}  // namespace
}  // namespace nn
}  // namespace lce
