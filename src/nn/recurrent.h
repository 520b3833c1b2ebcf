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
// final-state objective, which is all those models need, in two parts: the
// per-sequence dh/dc chain (BackwardChain), which row blocks run on their
// own lanes, and the weight-gradient sums (AddGradSums), phase B of
// row-block training (grad_sums.h).

#ifndef LCE_NN_RECURRENT_H_
#define LCE_NN_RECURRENT_H_

#include <span>
#include <vector>

#include "src/nn/grad_sums.h"
#include "src/nn/param.h"

namespace lce {
namespace nn {

/// Per-step activations of one Forward and the rows of the BPTT chain that
/// follows it. Both cells share the bookkeeping; each adds its own per-step
/// matrices. Forward and BackwardChain reshape every matrix in place, so a
/// tape sized once (Reserve) is reused without allocating.
struct SequenceTape {
  std::vector<int> order;  // sequence index of each row, longest first
  int steps = 0;           // length of the longest sequence
  std::vector<int> step_first;  // BPTT row of each sequence's step 0
  Matrix packed;                // the chain's W^T scratch
};

/// h_t = tanh(x_t Wx + h_{t-1} Wh + b); returns h_T.
class RnnCell {
 public:
  struct Tape : SequenceTape {
    std::vector<Matrix> h;  // h[t]: h_t of the rows still running at t
    Matrix xt, hh;          // forward scratch: x_t and h_{t-1} Wh
    // BPTT rows, one per (sequence, step) in StepRows order: the inputs of
    // the three gradient sums, written by BackwardChain.
    Matrix xs, hprev, dpres;
    Matrix dh, dnext;  // chain scratch
  };

  RnnCell(int in_dim, int hidden_dim, Rng* rng);

  /// `seqs[i]` is T_i x in_dim (T_i >= 1). Writes to `out` (reshaped to
  /// N x hidden_dim) the final hidden state of each sequence in row i.
  /// Writes no member. `tape` holds the per-step activations; with
  /// `record` every step's, as BackwardChain needs, else only the running
  /// step's (inference).
  void Forward(std::span<const Matrix> seqs, Tape* tape, bool record,
               Matrix* out) const;
  /// The forward into a new matrix; with a `tape`, every step is recorded.
  Matrix Forward(std::span<const Matrix> seqs, Tape* tape = nullptr) const;

  /// Grows `tape` to fit a Forward over sequences of the given lengths
  /// (each step's matrices to the rows still running at that step) and,
  /// with `backward`, their BackwardChain.
  void Reserve(std::span<const int> lengths, bool backward, Tape* tape) const;

  /// Phase A of BPTT through the recorded Forward of `seqs`, given
  /// `dh_final` (row i = dL/dh_T of `seqs[i]`): writes the rows the
  /// gradient sums read into the tape. Sequence i's rows depend only on
  /// sequence i, and nothing else is written.
  void BackwardChain(std::span<const Matrix> seqs, const Matrix& dh_final,
                     Tape* tape) const;

  /// Phase B: adds the gradient sums over `blocks` (tapes that ran
  /// BackwardChain), in block order, to `sums`. The terms add sequence by
  /// sequence, each from its last step to its first — the order of
  /// one-sequence backwards in turn.
  void AddGradSums(std::span<const Tape* const> blocks, GradSums* sums);

  /// The one-call backward: BackwardChain, then the gradient sums of this
  /// one block.
  void Backward(std::span<const Matrix> seqs, Tape* tape,
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
  struct Tape : SequenceTape {
    // Per step t, the rows still running at t (step 0 only when not
    // recording).
    std::vector<Matrix> z;       // [x_t, h_{t-1}]
    // Post-activation [i f g o]; BackwardChain overwrites each step's rows
    // with their gradients dL/d(pre-activation).
    std::vector<Matrix> gates;
    std::vector<Matrix> c;       // cell state after the step
    std::vector<Matrix> tanh_c;  // tanh of it
    Matrix h, cs;                // running hidden and cell state
    // The gradient sums' input rows, one per (sequence, step) in StepRows
    // order: pointers into z and the gate gradients, written by
    // BackwardChain, so the rows are not copied.
    std::vector<const float*> z_rows, dgate_rows;
    Matrix w_h, dh, dc, dnext;  // chain scratch
  };

  LstmCell(int in_dim, int hidden_dim, Rng* rng);

  /// Same contracts as the RnnCell members of the same names, except that
  /// BackwardChain also overwrites the recorded gates with their gradients.
  void Forward(std::span<const Matrix> seqs, Tape* tape, bool record,
               Matrix* out) const;
  Matrix Forward(std::span<const Matrix> seqs, Tape* tape = nullptr) const;
  void Reserve(std::span<const int> lengths, bool backward, Tape* tape) const;
  void BackwardChain(std::span<const Matrix> seqs, const Matrix& dh_final,
                     Tape* tape) const;
  void AddGradSums(std::span<const Tape* const> blocks, GradSums* sums);
  void Backward(std::span<const Matrix> seqs, Tape* tape,
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
