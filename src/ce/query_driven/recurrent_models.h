// Sequence estimators: RNN and LSTM over token sequences (Ortiz et al.).

#ifndef LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/dense.h"
#include "src/nn/recurrent.h"

namespace lce {
namespace ce {

/// Common head: sequence -> recurrent encoder -> Dense(h, 1) -> sigmoid.
template <typename Cell>
class RecurrentEstimatorBase : public NeuralQueryDrivenEstimator {
 public:
  explicit RecurrentEstimatorBase(NeuralOptions options)
      : NeuralQueryDrivenEstimator(options) {}

 protected:
  void InitModel(Rng* rng) override {
    cell_ = std::make_unique<Cell>(encoder().seq_token_dim(),
                                   options_.hidden_dim, rng);
    head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1, rng);
  }

  std::unique_ptr<Workspace> NewWorkspace() const override {
    return std::make_unique<SequenceWorkspace>();
  }

  void ReserveWorkspace(QueryBatch queries, bool training,
                        Workspace* ws) const override {
    auto& w = static_cast<SequenceWorkspace&>(*ws);
    const int rows = static_cast<int>(queries.size());
    if (static_cast<int>(w.seqs.size()) < rows) w.seqs.resize(rows);
    std::vector<int> lengths;
    for (int i = 0; i < rows; ++i) {
      lengths.push_back(encoder().SequenceLength(*queries[i]));
      w.seqs[i].Reserve(lengths.back(), encoder().seq_token_dim());
    }
    cell_->Reserve(lengths, training, &w.cell);
    const int h = options_.hidden_dim;
    w.hs.Reserve(rows, h);
    w.out.Reserve(rows, 1);
    if (!training) return;
    w.g.Reserve(rows, 1);
    w.dh.Reserve(rows, h);
    w.packed.Reserve(1, h);
  }

  void Encode(QueryBatch queries, Workspace* ws) const override {
    auto& w = static_cast<SequenceWorkspace&>(*ws);
    w.n = static_cast<int>(queries.size());
    if (static_cast<int>(w.seqs.size()) < w.n) w.seqs.resize(w.n);
    for (int i = 0; i < w.n; ++i) {
      nn::Matrix& seq = w.seqs[i];
      seq.Resize(encoder().SequenceLength(*queries[i]),
                 encoder().seq_token_dim());
      encoder().SequenceEncodeInto(*queries[i], seq.raw(), seq.ld());
    }
  }

  const nn::Matrix& Forward(Workspace* ws, bool training) const override {
    auto& w = static_cast<SequenceWorkspace&>(*ws);
    // One length-packed time-major pass over all sequences, then one
    // multi-row head pass and the sigmoid.
    cell_->Forward(w.Seqs(), &w.cell, training, &w.hs);
    head_->ForwardInto(w.hs, nn::Activation::kIdentity, &w.out);
    for (int i = 0; i < w.out.rows(); ++i) {
      w.out.At(i, 0) = 1.0f / (1.0f + std::exp(-w.out.At(i, 0)));
    }
    return w.out;
  }

  void BackwardChain(Workspace* ws) const override {
    auto& w = static_cast<SequenceWorkspace&>(*ws);
    w.g.Resize(w.dpred.rows(), 1);
    for (int i = 0; i < w.g.rows(); ++i) {
      const float y = w.out.At(i, 0);
      w.g.At(i, 0) = w.dpred.At(i, 0) * y * (1.0f - y);  // through the sigmoid
    }
    head_->BackwardInput(w.g, &w.dh, &w.packed);
    cell_->BackwardChain(w.Seqs(), w.dh, &w.cell);
  }

  void AddGradSums(std::span<Workspace* const> blocks,
                   nn::GradSums* sums) override {
    std::vector<nn::GradBlock> head_blocks;
    std::vector<const typename Cell::Tape*> cell_blocks;
    for (Workspace* ws : blocks) {
      auto& w = static_cast<SequenceWorkspace&>(*ws);
      head_blocks.push_back({&w.hs, &w.g});
      cell_blocks.push_back(&w.cell);
    }
    head_->AddGradSums(head_blocks, sums);
    cell_->AddGradSums(cell_blocks, sums);
  }

  std::vector<nn::Param*> Params() override {
    std::vector<nn::Param*> params = cell_->Params();
    for (nn::Param* p : head_->Params()) params.push_back(p);
    return params;
  }

  size_t NumParams() const override {
    if (cell_ == nullptr) return 0;
    return cell_->NumParams() +
           static_cast<size_t>(head_->in_dim()) * head_->out_dim() +
           head_->out_dim();
  }

 private:
  struct SequenceWorkspace : Workspace {
    // One T_i x token_dim matrix per query; the first n are the block's.
    std::vector<nn::Matrix> seqs;
    int n = 0;
    typename Cell::Tape cell;
    nn::Matrix hs;      // final hidden state per query
    nn::Matrix out;     // sigmoid output per query
    nn::Matrix g;       // dL/d(head pre-activation) per query
    nn::Matrix dh;      // dL/d(final hidden state) per query
    nn::Matrix packed;  // the head's W^T scratch

    std::span<const nn::Matrix> Seqs() const {
      return std::span<const nn::Matrix>(seqs.data(),
                                         static_cast<size_t>(n));
    }
  };

  std::unique_ptr<Cell> cell_;
  std::unique_ptr<nn::Dense> head_;
};

class RnnEstimator : public RecurrentEstimatorBase<nn::RnnCell> {
 public:
  explicit RnnEstimator(NeuralOptions options = {})
      : RecurrentEstimatorBase(options) {}
  std::string Name() const override { return "RNN"; }
};

class LstmEstimator : public RecurrentEstimatorBase<nn::LstmCell> {
 public:
  explicit LstmEstimator(NeuralOptions options = {})
      : RecurrentEstimatorBase(options) {}
  std::string Name() const override { return "LSTM"; }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_
