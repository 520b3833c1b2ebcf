// Regression losses on log-cardinality targets.
//
// All models in the study regress y = log(card). Two losses are compared in
// the loss-ablation experiment (R11):
//   * MSE on log targets: (ŷ - y)^2 — the generic regression choice.
//   * Log-Q loss: |ŷ - y| = log(q-error) — directly optimizes the study's
//     accuracy metric, since q-error = exp(|ŷ - y|) in log space.

#ifndef LCE_NN_LOSS_H_
#define LCE_NN_LOSS_H_

#include <cmath>

namespace lce {
namespace nn {

enum class LossKind { kMse, kLogQ };

/// One row's loss term and its dL/dpred inside a minibatch of `batch` rows,
/// whose loss is the mean of the rows' terms.
struct RowLoss {
  double term = 0;
  float grad = 0;
};

/// Training and the gradient checks both call this one formula, so the
/// checks verify the rounding training runs: the gradient divides by the
/// batch size last.
inline RowLoss ComputeRowLoss(LossKind kind, float pred, float target,
                              int batch) {
  const float diff = pred - target;
  if (kind == LossKind::kMse) {
    return {static_cast<double>(diff) * diff,
            2.0f * diff / static_cast<float>(batch)};
  }
  // Log-Q; subgradient 0 at the kink.
  return {std::abs(static_cast<double>(diff)),
          (diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f)) /
              static_cast<float>(batch)};
}

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_LOSS_H_
