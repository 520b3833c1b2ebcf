// Fully-connected layer: a const forward and a batched, split backward.

#ifndef LCE_NN_DENSE_H_
#define LCE_NN_DENSE_H_

#include <cmath>
#include <span>
#include <vector>

#include "src/nn/grad_sums.h"
#include "src/nn/param.h"

namespace lce {
namespace nn {

/// y = act(x * W + b), operating on a batch matrix (rows = examples).
///
/// Forward writes no member, so inference needs no training state; the
/// caller keeps the forward's input for the backward. The backward comes in
/// two parts: the per-row chain dL/dx (BackwardInput), which row blocks run
/// on their own lanes, and the parameter gradients (AccumulateGradients, or
/// AddGradSums over row blocks), which accumulate until ZeroGrad().
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

  /// Forward into *y, reshaped in place.
  void ForwardInto(const Matrix& x, Activation act, Matrix* y) const {
    MatMulBiasActInto(x, weight_.value, bias_.value, act, y);
  }

  /// dL/dx = dy W^T into *dx, given dL/d(pre-activation output) `dy`;
  /// `packed` is the kernel's scratch for W^T.
  void BackwardInput(const Matrix& dy, Matrix* dx, Matrix* packed) const {
    MatMulTransBInto(dy, weight_.value, dx, packed);
  }

  /// Accumulates dL/dW and dL/db of Forward(x) given `dy`. Each gradient
  /// adds its per-row terms in row order, as one-row backwards in row order
  /// would; with `segments`, dL/dW adds one zero-started sum per segment of
  /// rows instead (MatMulTransAAccumulate), as one backward per segment
  /// would. dL/db always adds row by row.
  void AccumulateGradients(const Matrix& x, const Matrix& dy,
                           const std::vector<int>* segments = nullptr) {
    MatMulTransAAccumulate(x, dy, &weight_.grad, segments);
    AccumulateRows(dy, &bias_.grad);
  }

  /// The same gradients over row blocks, added to `sums` for phase B: the
  /// blocks in order give the bits of AccumulateGradients over their rows
  /// stacked (grad_sums.h).
  void AddGradSums(std::span<const GradBlock> blocks, GradSums* sums) {
    sums->Add(&weight_.grad, blocks);
    sums->AddBias(&bias_.grad, blocks);
  }

  /// The one-call backward: BackwardInput into `dx` when non-null, then
  /// AccumulateGradients.
  void Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                const std::vector<int>* segments = nullptr) {
    if (dx != nullptr) {
      Matrix packed;
      BackwardInput(dy, dx, &packed);
    }
    AccumulateGradients(x, dy, segments);
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
