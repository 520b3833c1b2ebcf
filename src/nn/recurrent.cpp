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
// ordering only affects row placement, never row values). Writes into
// `order` in place.
void SortByLengthDesc(std::span<const Matrix> seqs, int in,
                      std::vector<int>* order) {
  LCE_CHECK(!seqs.empty());
  for (const Matrix& s : seqs) {
    LCE_CHECK(s.rows() >= 1);
    LCE_CHECK(s.cols() == in);
  }
  order->resize(seqs.size());
  std::iota(order->begin(), order->end(), 0);
  // Insertion sort: stable, and unlike std::stable_sort it allocates no
  // buffer, so a lane can sort its block in place.
  std::vector<int>& o = *order;
  for (size_t i = 1; i < o.size(); ++i) {
    const int idx = o[i];
    size_t j = i;
    for (; j > 0 && seqs[o[j - 1]].rows() < seqs[idx].rows(); --j) {
      o[j] = o[j - 1];
    }
    o[j] = idx;
  }
}

// Rows of `order` still running at step t: a prefix, since lengths descend.
int RunningRows(std::span<const Matrix> seqs, const std::vector<int>& order,
                int t, int active) {
  while (active > 0 && seqs[order[active - 1]].rows() <= t) --active;
  return active;
}

void CopyRow(const Matrix& src, int src_row, Matrix* dst, int dst_row) {
  const float* from = src.RowPtr(src_row);
  std::copy(from, from + src.cols(), dst->RowPtr(dst_row));
}

// Places every (sequence, step) term of BPTT in the order one-sequence
// backwards in turn add them: sequence by sequence in input order, each from
// its last step to its first. Accumulating the gradient terms over rows in
// this order reproduces those sums bit for bit. Fills tape->step_first and
// returns the number of rows.
int StepRows(std::span<const Matrix> seqs, SequenceTape* tape) {
  tape->step_first.resize(seqs.size());
  int total = 0;
  for (size_t i = 0; i < seqs.size(); ++i) {
    tape->step_first[i] = total + seqs[i].rows() - 1;
    total += seqs[i].rows();
  }
  return total;
}

int StepRow(const SequenceTape& tape, int seq, int t) {
  return tape.step_first[seq] - t;
}

// Extends `running` (the gradients of the rows that ran at step t + 1) in
// place to the `active` rows running at step t: rows whose sequence ends at
// t join from `at_end` (indexed by sequence), or as zeros when `at_end` is
// null.
void JoinRows(Matrix* running, int active, const std::vector<int>& order,
              const Matrix* at_end) {
  const int before = running->rows();
  running->Resize(active, running->cols());  // added rows are zero
  if (at_end == nullptr) return;
  for (int r = before; r < active; ++r) CopyRow(*at_end, order[r], running, r);
}

// Grows `steps` to hold `n` per-step matrices (reserved ones never shrink).
void EnsureSteps(std::vector<Matrix>* steps, int n) {
  if (static_cast<int>(steps->size()) < n) steps->resize(n);
}

// What a Forward over sequences of `lengths` needs: rows still running at
// each step (active[t]), the longest length, and the total step count.
struct StepShape {
  std::vector<int> active;
  int rows = 0;
  int total = 0;
};

StepShape ShapeOf(std::span<const int> lengths) {
  StepShape shape;
  shape.rows = static_cast<int>(lengths.size());
  for (int len : lengths) {
    if (static_cast<int>(shape.active.size()) < len) shape.active.resize(len);
    for (int t = 0; t < len; ++t) ++shape.active[t];
    shape.total += len;
  }
  return shape;
}

}  // namespace

RnnCell::RnnCell(int in_dim, int hidden_dim, Rng* rng)
    : wx_(Matrix::Randn(in_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(in_dim)), rng)),
      wh_(Matrix::Randn(hidden_dim, hidden_dim,
                        std::sqrt(1.0f / static_cast<float>(hidden_dim)), rng)),
      b_(Matrix::Zeros(1, hidden_dim)) {}

void RnnCell::Forward(std::span<const Matrix> seqs, Tape* tape, bool record,
                      Matrix* out) const {
  const int n = static_cast<int>(seqs.size());
  const int in = wx_.value.rows();
  const int h = hidden_dim();
  std::vector<int>& order = tape->order;
  SortByLengthDesc(seqs, in, &order);
  const int max_len = seqs[order[0]].rows();
  tape->steps = max_len;
  // Recording keeps h_t for every t; inference alternates two slots.
  EnsureSteps(&tape->h, record ? max_len : 2);
  out->Resize(n, h);
  int active = n;
  for (int t = 0; t < max_len; ++t) {
    Matrix& cur = tape->h[record ? t : t % 2];
    const Matrix* prev =
        t == 0 ? nullptr : &tape->h[record ? t - 1 : (t - 1) % 2];
    // Sequences shorter than t+1 steps finished last step; sorted descending
    // they occupy the tail rows, whose hidden states are already final.
    const int still = RunningRows(seqs, order, t, active);
    for (int r = still; r < active; ++r) CopyRow(*prev, r, out, order[r]);
    active = still;
    tape->xt.Resize(active, in);
    for (int r = 0; r < active; ++r) CopyRow(seqs[order[r]], t, &tape->xt, r);
    MatMulInto(tape->xt, wx_.value, &cur);
    if (prev != nullptr) {
      // h_{t-1} Wh; the running rows lead the last step's rows.
      MatMulInto(*prev, wh_.value, &tape->hh);
      for (int r = 0; r < active; ++r) {
        float* dst = cur.RowPtr(r);
        const float* src = tape->hh.RowPtr(r);
        for (int j = 0; j < h; ++j) dst[j] += src[j];
      }
    }
    // At t = 0, h_{-1} = 0 adds +0 to sums that start from +0 and so are
    // never -0: skipping it leaves every bit as it was.
    AddBiasRowActivate(&cur, b_.value, Activation::kTanh);
  }
  const Matrix& last = tape->h[record ? max_len - 1 : (max_len - 1) % 2];
  for (int r = 0; r < active; ++r) CopyRow(last, r, out, order[r]);
}

Matrix RnnCell::Forward(std::span<const Matrix> seqs, Tape* tape) const {
  Tape local;
  Matrix out;
  Forward(seqs, tape != nullptr ? tape : &local, tape != nullptr, &out);
  return out;
}

void RnnCell::Reserve(std::span<const int> lengths, bool backward,
                      Tape* tape) const {
  const int in = wx_.value.rows();
  const int h = hidden_dim();
  const StepShape shape = ShapeOf(lengths);
  const int rows = shape.rows;
  tape->order.reserve(rows);
  if (backward) {
    EnsureSteps(&tape->h, static_cast<int>(shape.active.size()));
    for (size_t t = 0; t < shape.active.size(); ++t) {
      tape->h[t].Reserve(shape.active[t], h);
    }
  } else {
    EnsureSteps(&tape->h, 2);
    for (int t = 0; t < 2; ++t) tape->h[t].Reserve(rows, h);
  }
  tape->xt.Reserve(rows, in);
  tape->hh.Reserve(rows, h);
  if (!backward) return;
  tape->step_first.reserve(rows);
  tape->packed.Reserve(h, h);
  tape->xs.Reserve(shape.total, in);
  tape->hprev.Reserve(shape.total, h);
  tape->dpres.Reserve(shape.total, h);
  tape->dh.Reserve(rows, h);
  tape->dnext.Reserve(rows, h);
}

void RnnCell::BackwardChain(std::span<const Matrix> seqs,
                            const Matrix& dh_final, Tape* tape) const {
  const int n = static_cast<int>(seqs.size());
  const int in = wx_.value.rows();
  const int h = hidden_dim();
  LCE_CHECK_MSG(tape->steps > 0 && static_cast<int>(tape->order.size()) == n &&
                    static_cast<int>(tape->h.size()) >= tape->steps,
                "BackwardChain without a matching recorded Forward");
  LCE_CHECK(dh_final.rows() == n && dh_final.cols() == h);
  const int total = StepRows(seqs, tape);
  tape->xs.Resize(total, in);
  tape->hprev.Resize(total, h);  // h_{t-1}; zero at t = 0
  tape->dpres.Resize(total, h);
  Matrix& dh = tape->dh;  // dL/dh_t of the rows running at step t + 1
  dh.Resize(0, h);
  for (int t = tape->steps - 1; t >= 0; --t) {
    const Matrix& ht = tape->h[t];
    JoinRows(&dh, ht.rows(), tape->order, &dh_final);
    dh = ActivationBackward(Activation::kTanh, ht, std::move(dh));
    for (int r = 0; r < ht.rows(); ++r) {
      const int seq = tape->order[r];
      const int row = StepRow(*tape, seq, t);
      CopyRow(seqs[seq], t, &tape->xs, row);
      if (t > 0) {
        CopyRow(tape->h[t - 1], r, &tape->hprev, row);
      } else {
        tape->hprev.ZeroRow(row);
      }
      CopyRow(dh, r, &tape->dpres, row);
    }
    if (t > 0) {
      MatMulTransBInto(dh, wh_.value, &tape->dnext, &tape->packed);
      std::swap(dh, tape->dnext);
    }
  }
}

void RnnCell::AddGradSums(std::span<const Tape* const> blocks,
                          GradSums* sums) {
  std::vector<GradBlock> x_blocks, h_blocks;
  for (const Tape* b : blocks) {
    x_blocks.push_back({&b->xs, &b->dpres});
    h_blocks.push_back({&b->hprev, &b->dpres});
  }
  sums->Add(&wx_.grad, x_blocks);
  sums->Add(&wh_.grad, h_blocks);
  sums->AddBias(&b_.grad, x_blocks);
}

void RnnCell::Backward(std::span<const Matrix> seqs, Tape* tape,
                       const Matrix& dh_final) {
  BackwardChain(seqs, dh_final, tape);
  MatMulTransAAccumulate(tape->xs, tape->dpres, &wx_.grad);
  MatMulTransAAccumulate(tape->hprev, tape->dpres, &wh_.grad);
  AccumulateRows(tape->dpres, &b_.grad);
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

void LstmCell::Forward(std::span<const Matrix> seqs, Tape* tape,
                       bool record, Matrix* out) const {
  const int n = static_cast<int>(seqs.size());
  const int hd = hidden_dim_;
  std::vector<int>& order = tape->order;
  SortByLengthDesc(seqs, in_dim_, &order);
  const int max_len = seqs[order[0]].rows();
  tape->steps = max_len;
  // Recording keeps every step; inference reuses step 0's matrices.
  const int slots = record ? max_len : 1;
  EnsureSteps(&tape->z, slots);
  EnsureSteps(&tape->gates, slots);
  if (record) {
    EnsureSteps(&tape->c, slots);
    EnsureSteps(&tape->tanh_c, slots);
  }
  out->Resize(n, hd);
  Matrix& hcur = tape->h;
  Matrix& ccur = tape->cs;
  hcur.Resize(n, hd);
  ccur.Resize(n, hd);
  for (int r = 0; r < n; ++r) {
    hcur.ZeroRow(r);
    ccur.ZeroRow(r);
  }
  int active = n;
  for (int t = 0; t < max_len; ++t) {
    const int still = RunningRows(seqs, order, t, active);
    if (still < active) {
      for (int r = still; r < active; ++r) CopyRow(hcur, r, out, order[r]);
      hcur.Resize(still, hd);  // the leading rows keep their values
      ccur.Resize(still, hd);
      active = still;
    }
    // z = [x_t, h_{t-1}] per active row, one fused gate projection.
    Matrix& z = tape->z[record ? t : 0];
    z.Resize(active, in_dim_ + hd);
    for (int r = 0; r < active; ++r) {
      float* zrow = z.RowPtr(r);
      const float* src = seqs[order[r]].RowPtr(t);
      std::copy(src, src + in_dim_, zrow);
      const float* hrow = hcur.RowPtr(r);
      std::copy(hrow, hrow + hd, zrow + in_dim_);
    }
    Matrix& gates = tape->gates[record ? t : 0];
    MatMulBiasActInto(z, w_.value, b_.value, Activation::kIdentity, &gates);
    Matrix* tanh_c = record ? &tape->tanh_c[t] : nullptr;
    if (tanh_c != nullptr) tanh_c->Resize(active, hd);
    for (int r = 0; r < active; ++r) {
      float* g = gates.RowPtr(r);
      // i, f, o gates: sigmoid; g (cell candidate): tanh.
      for (int j = 0; j < 4 * hd; ++j) {
        const bool is_g = j >= 2 * hd && j < 3 * hd;
        g[j] = is_g ? std::tanh(g[j]) : 1.0f / (1.0f + std::exp(-g[j]));
      }
      // The new cell and hidden states overwrite the old ones in place:
      // element j reads only its own old value.
      float* cs = ccur.RowPtr(r);
      float* hn = hcur.RowPtr(r);
      float* tc_row = tanh_c != nullptr ? tanh_c->RowPtr(r) : nullptr;
      for (int j = 0; j < hd; ++j) {
        float i = g[j];
        float f = g[hd + j];
        float gg = g[2 * hd + j];
        float o = g[3 * hd + j];
        float cv = f * cs[j] + i * gg;
        cs[j] = cv;
        float tc = std::tanh(cv);
        if (tc_row != nullptr) tc_row[j] = tc;
        hn[j] = o * tc;
      }
    }
    if (record) tape->c[t] = ccur;
  }
  for (int r = 0; r < active; ++r) CopyRow(hcur, r, out, order[r]);
}

Matrix LstmCell::Forward(std::span<const Matrix> seqs, Tape* tape) const {
  Tape local;
  Matrix out;
  Forward(seqs, tape != nullptr ? tape : &local, tape != nullptr, &out);
  return out;
}

void LstmCell::Reserve(std::span<const int> lengths, bool backward,
                       Tape* tape) const {
  const int hd = hidden_dim_;
  const int zd = in_dim_ + hd;
  const StepShape shape = ShapeOf(lengths);
  const int rows = shape.rows;
  tape->order.reserve(rows);
  // Recorded steps hold the rows still running; inference reuses step 0.
  const int slots = backward ? static_cast<int>(shape.active.size()) : 1;
  EnsureSteps(&tape->z, slots);
  EnsureSteps(&tape->gates, slots);
  for (int t = 0; t < slots; ++t) {
    const int active = backward ? shape.active[t] : rows;
    tape->z[t].Reserve(active, zd);
    tape->gates[t].Reserve(active, 4 * hd);
  }
  tape->h.Reserve(rows, hd);
  tape->cs.Reserve(rows, hd);
  if (!backward) return;
  EnsureSteps(&tape->c, slots);
  EnsureSteps(&tape->tanh_c, slots);
  for (int t = 0; t < slots; ++t) {
    tape->c[t].Reserve(shape.active[t], hd);
    tape->tanh_c[t].Reserve(shape.active[t], hd);
  }
  tape->step_first.reserve(rows);
  tape->z_rows.reserve(shape.total);
  tape->dgate_rows.reserve(shape.total);
  tape->w_h.Reserve(hd, 4 * hd);
  tape->packed.Reserve(4 * hd, hd);
  tape->dh.Reserve(rows, hd);
  tape->dc.Reserve(rows, hd);
  tape->dnext.Reserve(rows, hd);
}

void LstmCell::BackwardChain(std::span<const Matrix> seqs,
                             const Matrix& dh_final, Tape* tape) const {
  const int n = static_cast<int>(seqs.size());
  const int hd = hidden_dim_;
  LCE_CHECK_MSG(tape->steps > 0 && static_cast<int>(tape->order.size()) == n &&
                    static_cast<int>(tape->c.size()) >= tape->steps,
                "BackwardChain without a matching recorded Forward");
  LCE_CHECK(dh_final.rows() == n && dh_final.cols() == hd);
  // dL/dh_{t-1} is the h-part of dL/dz, which only W's last hd rows feed.
  Matrix& w_h = tape->w_h;
  w_h.Resize(hd, 4 * hd);
  for (int j = 0; j < hd; ++j) CopyRow(w_.value, in_dim_ + j, &w_h, j);
  const int total = StepRows(seqs, tape);
  tape->z_rows.resize(total);
  tape->dgate_rows.resize(total);
  Matrix& dh = tape->dh;  // of the rows running at step t + 1
  Matrix& dc = tape->dc;
  dh.Resize(0, hd);
  dc.Resize(0, hd);
  for (int t = tape->steps - 1; t >= 0; --t) {
    // Each row of the step's gates becomes its gate gradient in place.
    Matrix& dgates = tape->gates[t];
    const int active = dgates.rows();
    JoinRows(&dh, active, tape->order, &dh_final);
    JoinRows(&dc, active, tape->order, nullptr);
    for (int r = 0; r < active; ++r) {
      float* g = dgates.RowPtr(r);  // the gates in, their gradients out
      const float* tcrow = tape->tanh_c[t].RowPtr(r);
      const float* cprow = t > 0 ? tape->c[t - 1].RowPtr(r) : nullptr;
      const float* dh_row = dh.RowPtr(r);
      // dc holds dL/dc_t on entry and dL/dc_{t-1} on exit: element j reads
      // only its own old value.
      float* dc_row = dc.RowPtr(r);
      for (int j = 0; j < hd; ++j) {
        float i = g[j];
        float f = g[hd + j];
        float gg = g[2 * hd + j];
        float o = g[3 * hd + j];
        float tc = tcrow[j];
        float dhj = dh_row[j];
        // h = o * tanh(c)
        float do_ = dhj * tc;
        float dcj = dc_row[j] + dhj * o * (1.0f - tc * tc);
        // c = f * c_prev + i * g
        float di = dcj * gg;
        float df = dcj * (cprow != nullptr ? cprow[j] : 0.0f);
        float dg = dcj * i;
        dc_row[j] = dcj * f;
        // Through the gate nonlinearities; unit j's four gates were read
        // above, so their slots take the gradients.
        g[j] = di * i * (1.0f - i);
        g[hd + j] = df * f * (1.0f - f);
        g[2 * hd + j] = dg * (1.0f - gg * gg);
        g[3 * hd + j] = do_ * o * (1.0f - o);
      }
      const int row = StepRow(*tape, tape->order[r], t);
      tape->z_rows[row] = tape->z[t].RowPtr(r);
      tape->dgate_rows[row] = g;
    }
    if (t > 0) {
      MatMulTransBInto(dgates, w_h, &tape->dnext, &tape->packed);
      std::swap(dh, tape->dnext);
    }
  }
}

void LstmCell::AddGradSums(std::span<const Tape* const> blocks,
                           GradSums* sums) {
  std::vector<GradBlock> gate_blocks;
  for (const Tape* b : blocks) {
    gate_blocks.push_back(
        {nullptr, nullptr, nullptr, b->z_rows, b->dgate_rows});
  }
  sums->Add(&w_.grad, gate_blocks);
  sums->AddBias(&b_.grad, gate_blocks);
}

void LstmCell::Backward(std::span<const Matrix> seqs, Tape* tape,
                        const Matrix& dh_final) {
  BackwardChain(seqs, dh_final, tape);
  MatMulTransAAccumulateGatheredRows(tape->z_rows, tape->dgate_rows, 0,
                                     w_.grad.rows(), &w_.grad);
  AccumulateGatheredRows(tape->dgate_rows, &b_.grad);
}

}  // namespace nn
}  // namespace lce
