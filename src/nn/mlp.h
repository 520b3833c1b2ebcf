// Multi-layer perceptron: the workhorse of every query-driven model.

#ifndef LCE_NN_MLP_H_
#define LCE_NN_MLP_H_

#include <memory>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/dense.h"

namespace lce {
namespace nn {

/// The layer outputs of one training forward, kept for its backward. Each
/// Forward replaces them with newly allocated matrices.
struct MlpTape {
  std::vector<Matrix> outputs;  // post-activation output per layer
};

/// A stack of Dense layers with per-layer activations. Hidden layers use
/// `hidden_act`; the output layer uses `output_act`.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  /// The network's output for every row of `x`. Writes no member; with a
  /// `tape` it also records each layer's output there for Backward.
  Matrix Forward(const Matrix& x, MlpTape* tape = nullptr) const;

  /// Backward of the Forward that recorded `tape` from input `x`, given
  /// dL/d(output) `dout`: accumulates parameter gradients (per-row terms in
  /// row order, or per segment of rows — see Dense::Backward) and writes
  /// dL/dx to `dx` when non-null.
  void Backward(const Matrix& x, const MlpTape& tape, const Matrix& dout,
                Matrix* dx, const std::vector<int>* segments = nullptr);

  std::vector<Param*> Params();

  size_t NumParams() const;
  int in_dim() const { return layers_.front()->in_dim(); }
  int out_dim() const { return layers_.back()->out_dim(); }

 private:
  std::vector<std::unique_ptr<Dense>> layers_;
  std::vector<Activation> acts_;
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_MLP_H_
