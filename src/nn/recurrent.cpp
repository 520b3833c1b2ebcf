#include "src/nn/recurrent.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/nn/activation.h"

namespace lce {
namespace nn {

namespace {

// Batched sequence bookkeeping shared by both cells: indices sorted by
// descending length (stable, so equal-length sequences keep input order —
// ordering only affects row placement, never row values).
std::vector<int> SortByLengthDesc(const std::vector<Matrix>& seqs, int in) {
  LCE_CHECK(!seqs.empty());
  for (const Matrix& s : seqs) {
    LCE_CHECK(s.rows() >= 1);
    LCE_CHECK(s.cols() == in);
  }
  std::vector<int> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&seqs](int a, int b) {
    return seqs[a].rows() > seqs[b].rows();
  });
  return order;
}

// Rows of `order` still running at step t: a prefix, since lengths descend.
int RunningRows(const std::vector<Matrix>& seqs, const std::vector<int>& order,
                int t, int active) {
  while (active > 0 && seqs[order[active - 1]].rows() <= t) --active;
  return active;
}

void CopyRow(const Matrix& src, int src_row, Matrix* dst, int dst_row) {
  const float* from = src.RowPtr(src_row);
  std::copy(from, from + src.cols(), dst->RowPtr(dst_row));
}

// Copies the leading `rows` rows of `m` into a fresh rows x cols matrix.
Matrix ShrinkRows(const Matrix& m, int rows) {
  Matrix out(rows, m.cols());
  for (int r = 0; r < rows; ++r) CopyRow(m, r, &out, r);
  return out;
}

// Places every (sequence, step) term of BPTT in the order one-sequence
// backwards in turn add them: sequence by sequence in input order, each from
// its last step to its first. Accumulating the gradient terms over rows in
// this order reproduces those sums bit for bit.
class StepRows {
 public:
  explicit StepRows(const std::vector<Matrix>& seqs) {
    first_.reserve(seqs.size());
    for (const Matrix& s : seqs) {
      first_.push_back(total_ + s.rows() - 1);
      total_ += s.rows();
    }
  }
  int total() const { return total_; }
  int Row(int seq, int t) const { return first_[seq] - t; }

 private:
  std::vector<int> first_;  // row of each sequence's step 0
  int total_ = 0;
};

// Extends `running` (the gradients of the rows that ran at step t + 1) to
// the `active` rows running at step t: rows whose sequence ends at t join
// from `at_end` (indexed by sequence), or as zeros when `at_end` is null.
Matrix JoinRows(const Matrix& running, int active, const std::vector<int>& order,
                const Matrix* at_end, int cols) {
  Matrix out(active, cols);
  for (int r = 0; r < running.rows(); ++r) CopyRow(running, r, &out, r);
  if (at_end != nullptr) {
    for (int r = running.rows(); r < active; ++r) {
      CopyRow(*at_end, order[r], &out, r);
    }
  }
  return out;
}

}  // namespace

RnnCell::RnnCell(int in_dim, int hidden_dim, Rng* rng)
    : wx_(Matrix::Randn(in_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(in_dim)), rng)),
      wh_(Matrix::Randn(hidden_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(hidden_dim)), rng)),
      b_(Matrix::Zeros(1, hidden_dim)) {}

Matrix RnnCell::Forward(const std::vector<Matrix>& seqs, Tape* tape) const {
  const int n = static_cast<int>(seqs.size());
  const int in = wx_.value.rows();
  const int h = hidden_dim();
  std::vector<int> order = SortByLengthDesc(seqs, in);
  const int max_len = seqs[order[0]].rows();
  Matrix out(n, h);
  Matrix hcur = Matrix::Zeros(n, h);  // rows follow `order`
  int active = n;
  if (tape != nullptr) tape->h.resize(max_len);
  for (int t = 0; t < max_len; ++t) {
    // Sequences shorter than t+1 steps finished last step; sorted descending
    // they occupy the tail rows, whose hidden states are already final.
    const int still = RunningRows(seqs, order, t, active);
    if (still < active) {
      for (int r = still; r < active; ++r) CopyRow(hcur, r, &out, order[r]);
      hcur = ShrinkRows(hcur, still);
      active = still;
    }
    Matrix xt(active, in);
    for (int r = 0; r < active; ++r) CopyRow(seqs[order[r]], t, &xt, r);
    Matrix pre = MatMul(xt, wx_.value);
    pre.Add(MatMul(hcur, wh_.value));
    AddBiasRowActivate(&pre, b_.value, Activation::kTanh);
    hcur = std::move(pre);
    if (tape != nullptr) tape->h[t] = hcur;
  }
  for (int r = 0; r < active; ++r) CopyRow(hcur, r, &out, order[r]);
  if (tape != nullptr) tape->order = std::move(order);
  return out;
}

void RnnCell::Backward(const std::vector<Matrix>& seqs, const Tape& tape,
                       const Matrix& dh_final) {
  const int n = static_cast<int>(seqs.size());
  const int in = wx_.value.rows();
  const int h = hidden_dim();
  LCE_CHECK_MSG(!tape.h.empty() && static_cast<int>(tape.order.size()) == n,
                "Backward without a matching Forward");
  LCE_CHECK(dh_final.rows() == n && dh_final.cols() == h);
  const StepRows steps(seqs);
  Matrix xs(steps.total(), in);
  Matrix hprev(steps.total(), h);  // h_{t-1}; zero at t = 0
  Matrix dpres(steps.total(), h);
  Matrix dh;  // dL/dh_t of the rows running at step t + 1
  for (int t = static_cast<int>(tape.h.size()) - 1; t >= 0; --t) {
    const Matrix& ht = tape.h[t];
    Matrix dpre = ActivationBackward(
        Activation::kTanh, ht,
        JoinRows(dh, ht.rows(), tape.order, &dh_final, h));
    for (int r = 0; r < ht.rows(); ++r) {
      const int seq = tape.order[r];
      const int row = steps.Row(seq, t);
      CopyRow(seqs[seq], t, &xs, row);
      if (t > 0) CopyRow(tape.h[t - 1], r, &hprev, row);
      CopyRow(dpre, r, &dpres, row);
    }
    if (t > 0) dh = MatMulTransB(dpre, wh_.value);
  }
  MatMulTransAAccumulate(xs, dpres, &wx_.grad);
  MatMulTransAAccumulate(hprev, dpres, &wh_.grad);
  AccumulateRows(dpres, &b_.grad);
}

LstmCell::LstmCell(int in_dim, int hidden_dim, Rng* rng)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      w_(Matrix::Randn(in_dim + hidden_dim, 4 * hidden_dim,
                       std::sqrt(1.0f / static_cast<float>(in_dim + hidden_dim)),
                       rng)),
      b_(Matrix::Zeros(1, 4 * hidden_dim)) {
  // Forget-gate bias starts positive: standard trick for gradient flow.
  for (int j = hidden_dim_; j < 2 * hidden_dim_; ++j) b_.value.At(0, j) = 1.0f;
}

Matrix LstmCell::Forward(const std::vector<Matrix>& seqs, Tape* tape) const {
  const int n = static_cast<int>(seqs.size());
  const int hd = hidden_dim_;
  std::vector<int> order = SortByLengthDesc(seqs, in_dim_);
  const int max_len = seqs[order[0]].rows();
  Matrix out(n, hd);
  Matrix hcur = Matrix::Zeros(n, hd);
  Matrix ccur = Matrix::Zeros(n, hd);
  int active = n;
  if (tape != nullptr) {
    tape->z.resize(max_len);
    tape->gates.resize(max_len);
    tape->c.resize(max_len);
    tape->tanh_c.resize(max_len);
  }
  for (int t = 0; t < max_len; ++t) {
    const int still = RunningRows(seqs, order, t, active);
    if (still < active) {
      for (int r = still; r < active; ++r) CopyRow(hcur, r, &out, order[r]);
      hcur = ShrinkRows(hcur, still);
      ccur = ShrinkRows(ccur, still);
      active = still;
    }
    // z = [x_t, h_{t-1}] per active row, one fused gate projection.
    Matrix z(active, in_dim_ + hd);
    for (int r = 0; r < active; ++r) {
      float* zrow = z.RowPtr(r);
      const float* src = seqs[order[r]].RowPtr(t);
      std::copy(src, src + in_dim_, zrow);
      const float* hrow = hcur.RowPtr(r);
      std::copy(hrow, hrow + hd, zrow + in_dim_);
    }
    Matrix gates = MatMulBiasAct(z, w_.value, b_.value, Activation::kIdentity);
    Matrix h_next(active, hd);
    Matrix c_next(active, hd);
    Matrix tanh_c = tape != nullptr ? Matrix(active, hd) : Matrix();
    for (int r = 0; r < active; ++r) {
      float* g = gates.RowPtr(r);
      // i, f, o gates: sigmoid; g (cell candidate): tanh.
      for (int j = 0; j < 4 * hd; ++j) {
        const bool is_g = j >= 2 * hd && j < 3 * hd;
        g[j] = is_g ? std::tanh(g[j]) : 1.0f / (1.0f + std::exp(-g[j]));
      }
      const float* cp = ccur.RowPtr(r);
      float* hn = h_next.RowPtr(r);
      float* cn = c_next.RowPtr(r);
      for (int j = 0; j < hd; ++j) {
        float i = g[j];
        float f = g[hd + j];
        float gg = g[2 * hd + j];
        float o = g[3 * hd + j];
        float cv = f * cp[j] + i * gg;
        cn[j] = cv;
        float tc = std::tanh(cv);
        if (tape != nullptr) tanh_c.At(r, j) = tc;
        hn[j] = o * tc;
      }
    }
    hcur = std::move(h_next);
    ccur = std::move(c_next);
    if (tape != nullptr) {
      tape->z[t] = std::move(z);
      tape->gates[t] = std::move(gates);
      tape->c[t] = ccur;
      tape->tanh_c[t] = std::move(tanh_c);
    }
  }
  for (int r = 0; r < active; ++r) CopyRow(hcur, r, &out, order[r]);
  if (tape != nullptr) tape->order = std::move(order);
  return out;
}

void LstmCell::Backward(const std::vector<Matrix>& seqs, const Tape& tape,
                        const Matrix& dh_final) {
  const int n = static_cast<int>(seqs.size());
  const int hd = hidden_dim_;
  LCE_CHECK_MSG(!tape.gates.empty() && static_cast<int>(tape.order.size()) == n,
                "Backward without a matching Forward");
  LCE_CHECK(dh_final.rows() == n && dh_final.cols() == hd);
  // dL/dh_{t-1} is the h-part of dL/dz, which only W's last hd rows feed.
  Matrix w_h(hd, 4 * hd);
  for (int j = 0; j < hd; ++j) CopyRow(w_.value, in_dim_ + j, &w_h, j);
  const StepRows steps(seqs);
  Matrix zs(steps.total(), in_dim_ + hd);
  Matrix dgates_all(steps.total(), 4 * hd);
  Matrix dh, dc;  // of the rows running at step t + 1
  for (int t = static_cast<int>(tape.gates.size()) - 1; t >= 0; --t) {
    const Matrix& gates = tape.gates[t];
    const int active = gates.rows();
    const Matrix dh_t = JoinRows(dh, active, tape.order, &dh_final, hd);
    const Matrix dc_t = JoinRows(dc, active, tape.order, nullptr, hd);
    Matrix dgates(active, 4 * hd);
    Matrix dc_prev(active, hd);
    for (int r = 0; r < active; ++r) {
      const float* g = gates.RowPtr(r);
      const float* tcrow = tape.tanh_c[t].RowPtr(r);
      const float* cprow = t > 0 ? tape.c[t - 1].RowPtr(r) : nullptr;
      float* dg_row = dgates.RowPtr(r);
      for (int j = 0; j < hd; ++j) {
        float i = g[j];
        float f = g[hd + j];
        float gg = g[2 * hd + j];
        float o = g[3 * hd + j];
        float tc = tcrow[j];
        float dhj = dh_t.At(r, j);
        // h = o * tanh(c)
        float do_ = dhj * tc;
        float dcj = dc_t.At(r, j) + dhj * o * (1.0f - tc * tc);
        // c = f * c_prev + i * g
        float di = dcj * gg;
        float df = dcj * (cprow != nullptr ? cprow[j] : 0.0f);
        float dg = dcj * i;
        dc_prev.At(r, j) = dcj * f;
        // Through the gate nonlinearities.
        dg_row[j] = di * i * (1.0f - i);
        dg_row[hd + j] = df * f * (1.0f - f);
        dg_row[2 * hd + j] = dg * (1.0f - gg * gg);
        dg_row[3 * hd + j] = do_ * o * (1.0f - o);
      }
      const int row = steps.Row(tape.order[r], t);
      CopyRow(tape.z[t], r, &zs, row);
      CopyRow(dgates, r, &dgates_all, row);
    }
    if (t > 0) {
      dh = MatMulTransB(dgates, w_h);
      dc = std::move(dc_prev);
    }
  }
  MatMulTransAAccumulate(zs, dgates_all, &w_.grad);
  AccumulateRows(dgates_all, &b_.grad);
}

}  // namespace nn
}  // namespace lce
