// Fully-connected layer: a const forward and a batched backward.

#ifndef LCE_NN_DENSE_H_
#define LCE_NN_DENSE_H_

#include <cmath>
#include <vector>

#include "src/nn/param.h"

namespace lce {
namespace nn {

/// y = act(x * W + b), operating on a batch matrix (rows = examples).
///
/// Forward writes no member, so inference needs no training state; the
/// caller keeps the forward's input for Backward. Parameter gradients
/// accumulate until ZeroGrad().
class Dense {
 public:
  Dense(int in_dim, int out_dim, Rng* rng)
      : weight_(Matrix::Randn(in_dim, out_dim,
                              std::sqrt(2.0f / static_cast<float>(in_dim)),
                              rng)),
        bias_(Matrix::Zeros(1, out_dim)) {}

  /// y = act(x * W + b) via the fused kernel epilogue (matrix.cpp): bias and
  /// activation apply while each output row is cache-hot instead of in two
  /// further passes. Bit-identical to MatMul + AddBiasRow + ApplyActivation.
  Matrix Forward(const Matrix& x,
                 Activation act = Activation::kIdentity) const {
    return MatMulBiasAct(x, weight_.value, bias_.value, act);
  }

  /// Backward of Forward(x) given dL/d(pre-activation output) `dy`:
  /// accumulates dL/dW and dL/db, and writes dL/dx to `dx` when non-null.
  /// Each gradient adds its per-row terms in row order, as one-row
  /// backwards in row order would; with `segments`, dL/dW adds one
  /// zero-started sum per segment of rows instead (MatMulTransAAccumulate),
  /// as one backward per segment would. dL/db always adds row by row.
  void Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                const std::vector<int>* segments = nullptr) {
    MatMulTransAAccumulate(x, dy, &weight_.grad, segments);
    AccumulateRows(dy, &bias_.grad);
    if (dx != nullptr) *dx = MatMulTransB(dy, weight_.value);
  }

  std::vector<Param*> Params() { return {&weight_, &bias_}; }

  int in_dim() const { return weight_.value.rows(); }
  int out_dim() const { return weight_.value.cols(); }

 private:
  Param weight_;
  Param bias_;
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_DENSE_H_
