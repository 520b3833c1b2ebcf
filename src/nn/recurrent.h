// Recurrent sequence encoders: vanilla RNN and LSTM cells.
//
// Query-driven CE models that consume queries as token sequences (RNN, LSTM
// estimators) encode a variable-length sequence into its final hidden state.
// Both cells work on a batch of sequences at once: rows are sorted by
// descending length and advanced time-major, so each step is one batched
// matmul over the rows still running, and rows whose sequence has ended drop
// off the tail. Rows never interact inside the kernels (the ascending-k
// accumulation contract of matrix.h), so every row is bit-identical to
// encoding that sequence alone. Backward-through-time is implemented for the
// final-state objective, which is all those models need.

#ifndef LCE_NN_RECURRENT_H_
#define LCE_NN_RECURRENT_H_

#include <vector>

#include "src/nn/param.h"

namespace lce {
namespace nn {

/// h_t = tanh(x_t Wx + h_{t-1} Wh + b); returns h_T.
class RnnCell {
 public:
  /// Per-step activations of one training Forward, kept for Backward.
  struct Tape {
    std::vector<int> order;  // sequence index of each row, longest first
    std::vector<Matrix> h;   // h[t]: h_t of the rows still running at t
  };

  RnnCell(int in_dim, int hidden_dim, Rng* rng);

  /// `seqs[i]` is T_i x in_dim (T_i >= 1). Returns an N x hidden_dim matrix
  /// whose row i is the final hidden state of `seqs[i]`. Writes no member;
  /// with a `tape` it also records the per-step activations there.
  Matrix Forward(const std::vector<Matrix>& seqs, Tape* tape = nullptr) const;

  /// BPTT through the Forward that recorded `tape` from `seqs`, given
  /// `dh_final` (row i = dL/dh_T of `seqs[i]`). Accumulates parameter
  /// gradients, adding the per-step terms sequence by sequence, each from
  /// its last step to its first — the order of one-sequence backwards in
  /// turn.
  void Backward(const std::vector<Matrix>& seqs, const Tape& tape,
                const Matrix& dh_final);

  std::vector<Param*> Params() { return {&wx_, &wh_, &b_}; }
  int hidden_dim() const { return wh_.value.rows(); }
  size_t NumParams() const {
    return wx_.NumElements() + wh_.NumElements() + b_.NumElements();
  }

 private:
  Param wx_, wh_, b_;
};

/// Standard LSTM with a fused gate projection: [i f g o] = z W + b where
/// z = [x_t, h_{t-1}]. Returns h_T.
class LstmCell {
 public:
  /// Per-step activations of one training Forward, kept for Backward; each
  /// entry t covers the rows still running at step t.
  struct Tape {
    std::vector<int> order;        // sequence index of each row
    std::vector<Matrix> z;         // [x_t, h_{t-1}]
    std::vector<Matrix> gates;     // post-activation [i f g o]
    std::vector<Matrix> c;         // cell state after the step
    std::vector<Matrix> tanh_c;    // tanh of it
  };

  LstmCell(int in_dim, int hidden_dim, Rng* rng);

  /// Same contract as RnnCell::Forward.
  Matrix Forward(const std::vector<Matrix>& seqs, Tape* tape = nullptr) const;

  /// Same contract as RnnCell::Backward.
  void Backward(const std::vector<Matrix>& seqs, const Tape& tape,
                const Matrix& dh_final);

  std::vector<Param*> Params() { return {&w_, &b_}; }
  int hidden_dim() const { return hidden_dim_; }
  size_t NumParams() const { return w_.NumElements() + b_.NumElements(); }

 private:
  int in_dim_;
  int hidden_dim_;
  Param w_, b_;
};

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_RECURRENT_H_
