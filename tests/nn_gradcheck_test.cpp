// Finite-difference gradient verification for every trainable building block.
// Each check perturbs individual parameters and compares the numerical
// derivative of a scalar loss against the analytic gradient.

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "src/nn/dense.h"
#include "src/nn/loss.h"
#include "src/nn/mlp.h"
#include "src/nn/recurrent.h"

namespace lce {
namespace nn {
namespace {

constexpr float kEps = 1e-3f;
constexpr float kTol = 2e-2f;  // relative tolerance (float32 + ReLU kinks)

// Element access by flat logical index (storage is padded; see matrix.h).
float& ElemAt(Matrix& m, size_t i) {
  return m.At(static_cast<int>(i / m.cols()), static_cast<int>(i % m.cols()));
}

double SumElems(const Matrix& m) {
  double s = 0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) s += m.At(r, c);
  }
  return s;
}

// Checks d(loss)/d(param) for every parameter element against finite
// differences. `forward` must recompute the scalar loss from scratch;
// `backward` must populate gradients for a single evaluation.
void CheckParamGradients(const std::vector<Param*>& params,
                         const std::function<double()>& forward,
                         const std::function<void()>& backward) {
  for (Param* p : params) p->ZeroGrad();
  backward();
  int checked = 0;
  for (Param* p : params) {
    for (size_t i = 0; i < p->value.size() && checked < 200; ++i, ++checked) {
      float original = ElemAt(p->value, i);
      ElemAt(p->value, i) = original + kEps;
      double up = forward();
      ElemAt(p->value, i) = original - kEps;
      double down = forward();
      ElemAt(p->value, i) = original;
      double numeric = (up - down) / (2.0 * kEps);
      double analytic = ElemAt(p->grad, i);
      // Floor keeps float32 finite-difference noise (~1e-4 on deep chains
      // like BPTT) from failing checks of near-zero gradients.
      double scale = std::max({std::abs(numeric), std::abs(analytic), 1e-2});
      EXPECT_NEAR(analytic, numeric, kTol * scale)
          << "param element " << i;
    }
  }
}

TEST(GradCheckTest, DenseLayer) {
  Rng rng(1);
  Dense dense(4, 3, &rng);
  Matrix x = Matrix::Randn(2, 4, 1.0f, &rng);
  // Loss = sum of outputs (gradient of ones).
  auto forward = [&]() {
    return SumElems(dense.Forward(x));
  };
  auto backward = [&]() {
    Matrix y = dense.Forward(x);
    Matrix ones(y.rows(), y.cols(), 1.0f);
    dense.Backward(x, ones, /*dx=*/nullptr);
  };
  CheckParamGradients(dense.Params(), forward, backward);
}

TEST(GradCheckTest, MlpWithTanhAndSigmoid) {
  Rng rng(2);
  // tanh avoids ReLU kinks that break finite differences.
  Mlp mlp({5, 7, 1}, Activation::kTanh, Activation::kSigmoid, &rng);
  Matrix x = Matrix::Randn(3, 5, 1.0f, &rng);
  std::vector<float> targets = {0.3f, 0.7f, 0.5f};
  auto forward = [&]() {
    Matrix y = mlp.Forward(x);
    return ComputeLoss(LossKind::kMse, y, targets).loss;
  };
  auto backward = [&]() {
    MlpTape tape;
    Matrix y = mlp.Forward(x, &tape);
    LossResult lr = ComputeLoss(LossKind::kMse, y, targets);
    mlp.Backward(x, &tape, lr.grad, /*dx=*/nullptr);
  };
  CheckParamGradients(mlp.Params(), forward, backward);
}

TEST(GradCheckTest, MlpInputGradient) {
  Rng rng(3);
  Mlp mlp({4, 6, 2}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x = Matrix::Randn(1, 4, 1.0f, &rng);
  auto loss_of = [&](const Matrix& input) {
    Matrix y = mlp.Forward(input);
    double s = 0;
    for (float v : y.ToFlat()) s += v * v;
    return s;
  };
  MlpTape tape;
  Matrix y = mlp.Forward(x, &tape);
  Matrix dy(y.rows(), y.cols());
  for (size_t i = 0; i < y.size(); ++i) {
    ElemAt(dy, i) = 2.0f * ElemAt(y, i);
  }
  Matrix dx;
  mlp.Backward(x, &tape, dy, &dx);
  for (int c = 0; c < x.cols(); ++c) {
    Matrix xp = x, xm = x;
    xp.At(0, c) += kEps;
    xm.At(0, c) -= kEps;
    double numeric = (loss_of(xp) - loss_of(xm)) / (2.0 * kEps);
    double scale = std::max({std::abs(numeric),
                             std::abs(static_cast<double>(dx.At(0, c))),
                             1e-3});
    EXPECT_NEAR(dx.At(0, c), numeric, kTol * scale);
  }
}

// Three sequences of lengths 5, 2 and 4 in one batch: the cells sort rows by
// length and drop finished ones, so the check also covers that masking.
std::vector<Matrix> MixedLengthBatch(int in_dim, Rng* rng) {
  return {Matrix::Randn(5, in_dim, 1.0f, rng),
          Matrix::Randn(2, in_dim, 1.0f, rng),
          Matrix::Randn(4, in_dim, 1.0f, rng)};
}

// Loss = sum of every sequence's final hidden state.
template <typename Cell>
void CheckCellThroughTime(Cell* cell, const std::vector<Matrix>& seqs) {
  auto forward = [&]() { return SumElems(cell->Forward(seqs)); };
  auto backward = [&]() {
    typename Cell::Tape tape;
    Matrix h = cell->Forward(seqs, &tape);
    Matrix ones(h.rows(), h.cols(), 1.0f);
    cell->Backward(seqs, &tape, ones);
  };
  CheckParamGradients(cell->Params(), forward, backward);
}

TEST(GradCheckTest, RnnCellThroughTime) {
  Rng rng(4);
  RnnCell cell(3, 5, &rng);
  CheckCellThroughTime(&cell, MixedLengthBatch(3, &rng));
}

TEST(GradCheckTest, LstmCellThroughTime) {
  Rng rng(5);
  LstmCell cell(3, 4, &rng);
  CheckCellThroughTime(&cell, MixedLengthBatch(3, &rng));
}

TEST(GradCheckTest, LossGradients) {
  Matrix pred(3, 1);
  pred.At(0, 0) = 0.2f;
  pred.At(1, 0) = 0.9f;
  pred.At(2, 0) = 0.5f;
  std::vector<float> targets = {0.5f, 0.5f, 0.5f};
  for (LossKind kind : {LossKind::kMse, LossKind::kLogQ}) {
    LossResult lr = ComputeLoss(kind, pred, targets);
    for (int i = 0; i < 3; ++i) {
      Matrix up = pred, down = pred;
      up.At(i, 0) += kEps;
      down.At(i, 0) -= kEps;
      double numeric = (ComputeLoss(kind, up, targets).loss -
                        ComputeLoss(kind, down, targets).loss) /
                       (2.0 * kEps);
      if (kind == LossKind::kLogQ && i == 2) continue;  // at the kink
      EXPECT_NEAR(lr.grad.At(i, 0), numeric, 1e-3) << "loss kind " << (int)kind;
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace lce
