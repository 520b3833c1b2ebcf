// Multi-layer perceptron: the workhorse of every query-driven model.

#ifndef LCE_NN_MLP_H_
#define LCE_NN_MLP_H_

#include <memory>
#include <span>
#include <vector>

#include "src/nn/activation.h"
#include "src/nn/dense.h"

namespace lce {
namespace nn {

/// The layer outputs of one forward and, after BackwardChain, each layer's
/// pre-activation gradient. Forward and BackwardChain reshape its matrices
/// in place, so a tape sized once (Mlp::Reserve) is reused without
/// allocating.
struct MlpTape {
  std::vector<Matrix> outputs;  // post-activation output per layer
  std::vector<Matrix> dpre;     // dL/d(pre-activation) per layer
  Matrix packed;                // BackwardInput's W^T scratch
};

/// One row block's share of an MLP's gradient sums: the block ran Forward
/// from `x`, recording `tape`, then BackwardChain.
struct MlpBlock {
  const Matrix* x;
  const MlpTape* tape;
  const std::vector<int>* segments = nullptr;
};

/// A stack of Dense layers with per-layer activations. Hidden layers use
/// `hidden_act`; the output layer uses `output_act`.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  /// The network's output for every row of `x`. Writes no member.
  Matrix Forward(const Matrix& x) const;

  /// The same forward, recording each layer's output in `tape`; returns the
  /// last one.
  const Matrix& Forward(const Matrix& x, MlpTape* tape) const;

  /// Sizes `tape` for forwards of up to `rows` rows and, with `backward`,
  /// their BackwardChain, so neither allocates.
  void Reserve(int rows, bool backward, MlpTape* tape) const;

  /// Phase A of the backward of the Forward that recorded `tape`: given
  /// dL/d(output) `dout`, writes each layer's pre-activation gradient to
  /// tape->dpre and dL/dx to `dx` when non-null. Row r of every result
  /// depends only on row r of the inputs, and nothing else is written.
  void BackwardChain(const Matrix& dout, MlpTape* tape, Matrix* dx) const;

  /// Phase B: adds every layer's gradient sums over `blocks`, in block
  /// order, to `sums` (grad_sums.h).
  void AddGradSums(std::span<const MlpBlock> blocks, GradSums* sums);

  /// The one-call backward of the Forward that recorded `tape` from input
  /// `x`: BackwardChain, then every layer's gradients over this one block
  /// (per-row terms in row order, or per segment of rows — see
  /// Dense::AccumulateGradients). Writes dL/dx to `dx` when non-null.
  void Backward(const Matrix& x, MlpTape* tape, const Matrix& dout,
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
