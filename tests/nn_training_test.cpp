// Training-dynamics and serialization tests of the NN substrate.

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/nn/mlp.h"
#include "src/nn/serialize.h"

namespace lce {
namespace nn {
namespace {

TEST(TrainingTest, MlpFitsQuadratic) {
  Rng rng(1);
  Mlp mlp({1, 16, 16, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  Adam adam(5e-3f);
  // y = x^2 on [-1, 1].
  auto batch = [&](int n, Matrix* x, std::vector<float>* t) {
    *x = Matrix(n, 1);
    t->resize(n);
    for (int i = 0; i < n; ++i) {
      float v = static_cast<float>(rng.Uniform(-1, 1));
      x->At(i, 0) = v;
      (*t)[i] = v * v;
    }
  };
  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 800; ++step) {
    Matrix x;
    std::vector<float> t;
    batch(32, &x, &t);
    MlpTape tape;
    Matrix y = mlp.Forward(x, &tape);
    Matrix grad(y.rows(), 1);
    double loss = 0;
    for (int i = 0; i < y.rows(); ++i) {
      RowLoss row = ComputeRowLoss(LossKind::kMse, y.At(i, 0), t[i], y.rows());
      loss += row.term;
      grad.At(i, 0) = row.grad;
    }
    loss /= y.rows();
    if (step == 0) first_loss = loss;
    last_loss = loss;
    mlp.Backward(x, &tape, grad, /*dx=*/nullptr);
    adam.Step(mlp.Params());
  }
  EXPECT_LT(last_loss, first_loss * 0.1);
  EXPECT_LT(last_loss, 0.01);
}

TEST(TrainingTest, AdamZeroesGradientsAfterStep) {
  Rng rng(2);
  Mlp mlp({2, 3, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x = Matrix::Randn(4, 2, 1.0f, &rng);
  MlpTape tape;
  mlp.Forward(x, &tape);
  Matrix ones(4, 1, 1.0f);
  mlp.Backward(x, &tape, ones, /*dx=*/nullptr);
  Adam adam(1e-3f);
  adam.Step(mlp.Params());
  for (Param* p : mlp.Params()) {
    for (float g : p->grad.ToFlat()) EXPECT_FLOAT_EQ(g, 0.0f);
  }
}

TEST(TrainingTest, AdamStepChangesParameters) {
  Rng rng(3);
  Mlp mlp({2, 3, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  std::vector<float> before;
  for (Param* p : mlp.Params()) {
    std::vector<float> flat = p->value.ToFlat();
    before.insert(before.end(), flat.begin(), flat.end());
  }
  Matrix x = Matrix::Randn(4, 2, 1.0f, &rng);
  MlpTape tape;
  mlp.Forward(x, &tape);
  Matrix ones(4, 1, 1.0f);
  mlp.Backward(x, &tape, ones, /*dx=*/nullptr);
  Adam adam(1e-2f);
  adam.Step(mlp.Params());
  std::vector<float> after;
  for (Param* p : mlp.Params()) {
    std::vector<float> flat = p->value.ToFlat();
    after.insert(after.end(), flat.begin(), flat.end());
  }
  EXPECT_NE(before, after);
}

TEST(SerializeTest, RoundTripRestoresOutputs) {
  Rng rng(4);
  Mlp source({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, &rng);
  Matrix x = Matrix::Randn(5, 3, 1.0f, &rng);
  Matrix y_before = source.Forward(x);

  std::stringstream buffer;
  SaveParams(source.Params(), &buffer);

  Rng rng2(999);  // different init
  Mlp restored({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, &rng2);
  ASSERT_TRUE(LoadParams(restored.Params(), &buffer).ok());
  Matrix y_after = restored.Forward(x);
  std::vector<float> flat_before = y_before.ToFlat();
  std::vector<float> flat_after = y_after.ToFlat();
  for (size_t i = 0; i < flat_before.size(); ++i) {
    EXPECT_FLOAT_EQ(flat_before[i], flat_after[i]);
  }
}

TEST(SerializeTest, LoadRejectsShapeMismatch) {
  Rng rng(5);
  Mlp a({3, 4, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  Mlp b({3, 5, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  std::stringstream buffer;
  SaveParams(a.Params(), &buffer);
  EXPECT_FALSE(LoadParams(b.Params(), &buffer).ok());
}

TEST(SerializeTest, LoadRejectsTruncatedStream) {
  Rng rng(6);
  Mlp a({3, 4, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  std::stringstream buffer;
  SaveParams(a.Params(), &buffer);
  std::string data = buffer.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_FALSE(LoadParams(a.Params(), &truncated).ok());
}

TEST(SerializeTest, NumParamsCountsWeightsAndBiases) {
  Rng rng(7);
  Mlp mlp({2, 3, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  // (2*3 + 3) + (3*1 + 1) = 13 floats.
  EXPECT_EQ(mlp.NumParams(), 13u);
}

}  // namespace
}  // namespace nn
}  // namespace lce
