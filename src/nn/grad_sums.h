// Phase B of row-block training: every weight gradient of a minibatch,
// summed in one parallel region.
//
// Phase A (ce/query_driven/neural_base.cpp) takes each row block of a
// minibatch through the forward pass and the backward pass's per-row
// dX/dh chain on one lane, leaving, per block and layer, the layer's input
// X_b and its pre-activation gradient dY_b. A weight gradient is then
// sum_b X_b^T dY_b, a bias gradient the sum of every row of every dY_b.
// GradSums collects those sums and Run() computes them in one region,
// split across lanes by gradient rows. Each element adds the blocks in
// order, rows ascending within a block (one zero-started sum per segment
// where a block has segments): the order one call over all the rows uses
// (DESIGN.md §10). So the gradients do not depend on how many blocks or
// lanes there are.

#ifndef LCE_NN_GRAD_SUMS_H_
#define LCE_NN_GRAD_SUMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/matrix.h"

namespace lce {
namespace nn {

/// Multiply-adds below which a share of a minibatch is not worth a pool
/// task (the kernels' per-chunk floor, matrix.cpp): a row block carries at
/// least this many rows x parameters, and gradient sums totalling less run
/// on the calling thread. So a small network's minibatch costs no pool
/// region. How the work is split never changes the bits.
inline constexpr int64_t kMinLaneWork = int64_t{1} << 15;

/// One row block's share of a gradient sum: grad += x^T dy, one
/// zero-started sum per segment of rows when `segments` is set. A block
/// whose rows are scattered over several matrices leaves x and dy null and
/// gives row k as x_rows[k] and dy_rows[k] instead (no segments).
struct GradBlock {
  const Matrix* x;
  const Matrix* dy;
  const std::vector<int>* segments = nullptr;
  std::span<const float* const> x_rows = {};
  std::span<const float* const> dy_rows = {};

  int64_t rows() const {
    return dy != nullptr ? dy->rows() : static_cast<int64_t>(dy_rows.size());
  }
};

class GradSums {
 public:
  /// Forgets the sums of the last minibatch, keeping every buffer.
  void Clear();

  /// Adds the weight-gradient sum grad += the blocks' terms, in order.
  void Add(Matrix* grad, std::span<const GradBlock> blocks);

  /// Adds the bias-gradient sum grad (1 x n) += every row of every block's
  /// dy, in order (x and segments are not read).
  void AddBias(Matrix* grad, std::span<const GradBlock> blocks);

  /// Computes every sum added since Clear() in one parallel region, or on
  /// the calling thread below kMinLaneWork. The calling thread sizes the
  /// partial-sum scratch first, so no lane allocates.
  void Run();

 private:
  struct Sum {
    Matrix* grad;
    size_t first_block;
    size_t num_blocks;
    int partial;  // index into partials_ of its segment-sum scratch, or -1
    bool bias;
  };
  struct Task {
    size_t sum;
    int row_begin;
    int row_end;
  };

  std::vector<GradBlock> blocks_;
  std::vector<Sum> sums_;
  std::vector<Task> tasks_;
  // One partial-sum scratch per segmented sum, in the order they are added;
  // a training run adds the same sums every minibatch, so they are reused.
  std::vector<Matrix> partials_;
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_GRAD_SUMS_H_
