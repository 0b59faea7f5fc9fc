#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace gnndm {
namespace {

TEST(TensorTest, ConstructsZeroed) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
  }
}

TEST(TensorTest, FillAndNorm) {
  Tensor t(2, 2);
  t.Fill(2.0f);
  EXPECT_DOUBLE_EQ(t.Norm(), 4.0);  // sqrt(4 * 4)
  t.Zero();
  EXPECT_DOUBLE_EQ(t.Norm(), 0.0);
}

TEST(TensorTest, RowSpanWritesThrough) {
  Tensor t(2, 3);
  auto row = t.row(1);
  row[2] = 5.0f;
  EXPECT_EQ(t.at(1, 2), 5.0f);
}

TEST(OpsTest, MatMulKnownResult) {
  Tensor a(2, 3), b(3, 2), c;
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  MatMul(a, b, c);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, MatMulTransposesAgree) {
  Rng rng(1);
  Tensor a(4, 3), b(4, 5);
  XavierInit(a, rng);
  XavierInit(b, rng);
  // a^T * b via MatMulTransA must equal manual transpose + MatMul.
  Tensor at(3, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor expected, actual;
  MatMul(at, b, expected);
  MatMulTransA(a, b, actual);
  ASSERT_EQ(expected.rows(), actual.rows());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], actual.data()[i], 1e-5);
  }
}

TEST(OpsTest, MatMulTransAMatchesAscendingKLoopBytes) {
  // The specified result of every GEMM is the plain ascending-kk sum per
  // element (no fma: the build uses -ffp-contract=off). k = 777 crosses
  // several of MatMulTransA's k slabs plus a remainder; m = 33 and
  // n = 19 leave partial register blocks.
  const size_t k = 777, m = 33, n = 19;
  Rng rng(3);
  Tensor a(k, m), b(k, n);
  XavierInit(a, rng);
  XavierInit(b, rng);
  Tensor expected(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) sum += a.at(kk, i) * b.at(kk, j);
      expected.at(i, j) = sum;
    }
  }
  Tensor actual;
  MatMulTransA(a, b, actual);
  ASSERT_EQ(actual.rows(), m);
  ASSERT_EQ(actual.cols(), n);
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST(OpsTest, MatMulTransBAgrees) {
  Rng rng(2);
  Tensor a(3, 4), b(5, 4);
  XavierInit(a, rng);
  XavierInit(b, rng);
  Tensor bt(4, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor expected, actual;
  MatMul(a, bt, expected);
  MatMulTransB(a, b, actual);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected.data()[i], actual.data()[i], 1e-5);
  }
}

TEST(OpsTest, AddBiasAndSumRowsAreAdjoint) {
  Tensor x(3, 2);
  Tensor bias(1, 2);
  bias.at(0, 0) = 1.0f;
  bias.at(0, 1) = -2.0f;
  AddBiasInPlace(x, bias);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(x.at(i, 0), 1.0f);
    EXPECT_EQ(x.at(i, 1), -2.0f);
  }
  Tensor sums;
  SumRows(x, sums);
  EXPECT_EQ(sums.at(0, 0), 3.0f);
  EXPECT_EQ(sums.at(0, 1), -6.0f);
}

TEST(OpsTest, ReluForwardBackward) {
  Tensor x(1, 4);
  float xv[] = {-1.0f, 0.0f, 2.0f, -3.0f};
  std::copy(xv, xv + 4, x.data());
  ReluInPlace(x);
  EXPECT_EQ(x.at(0, 0), 0.0f);
  EXPECT_EQ(x.at(0, 2), 2.0f);
  Tensor grad(1, 4);
  grad.Fill(1.0f);
  ReluBackwardInPlace(grad, x);
  EXPECT_EQ(grad.at(0, 0), 0.0f);  // activation was clipped to 0
  EXPECT_EQ(grad.at(0, 2), 1.0f);
}

TEST(OpsTest, SoftmaxCrossEntropyUniformLogits) {
  Tensor logits(2, 4);  // all zeros -> uniform distribution
  Tensor grad;
  double loss = SoftmaxCrossEntropy(logits, {0, 1}, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  // Gradient: (1/4 - 1)/2 for true class, (1/4)/2 elsewhere.
  EXPECT_NEAR(grad.at(0, 0), (0.25 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), 0.25 / 2.0, 1e-6);
}

TEST(OpsTest, SoftmaxCrossEntropyGradientSumsToZero) {
  Rng rng(3);
  Tensor logits(5, 7);
  XavierInit(logits, rng);
  Tensor grad;
  SoftmaxCrossEntropy(logits, {0, 1, 2, 3, 4}, grad);
  for (size_t i = 0; i < 5; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 7; ++j) row_sum += grad.at(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(OpsTest, SoftmaxCrossEntropyNumericalGradient) {
  // Finite-difference check of dLoss/dLogits.
  Rng rng(4);
  Tensor logits(3, 4);
  XavierInit(logits, rng);
  std::vector<int32_t> labels{2, 0, 3};
  Tensor grad;
  SoftmaxCrossEntropy(logits, labels, grad);
  const double eps = 1e-3;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      Tensor plus = logits, minus = logits, unused;
      plus.at(i, j) += static_cast<float>(eps);
      minus.at(i, j) -= static_cast<float>(eps);
      double lp = SoftmaxCrossEntropy(plus, labels, unused);
      double lm = SoftmaxCrossEntropy(minus, labels, unused);
      double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grad.at(i, j), numeric, 2e-3);
    }
  }
}

TEST(OpsTest, ArgmaxRows) {
  Tensor logits(2, 3);
  logits.at(0, 1) = 5.0f;
  logits.at(1, 2) = 3.0f;
  std::vector<int32_t> preds = ArgmaxRows(logits);
  EXPECT_EQ(preds[0], 1);
  EXPECT_EQ(preds[1], 2);
}

TEST(OpsTest, AxpyAndScale) {
  Tensor x(1, 3), y(1, 3);
  x.Fill(2.0f);
  y.Fill(1.0f);
  Axpy(3.0f, x, y);
  EXPECT_EQ(y.at(0, 0), 7.0f);
  ScaleInPlace(y, 0.5f);
  EXPECT_EQ(y.at(0, 0), 3.5f);
}

TEST(OpsTest, XavierInitWithinBound) {
  Rng rng(5);
  Tensor w(64, 32);
  XavierInit(w, rng);
  const double bound = std::sqrt(6.0 / (64 + 32));
  double max_abs = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(w.data()[i])));
  }
  EXPECT_LE(max_abs, bound + 1e-6);
  EXPECT_GT(max_abs, bound * 0.5);  // actually spread out
}

}  // namespace
}  // namespace gnndm
