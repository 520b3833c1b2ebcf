// Sequence estimators: RNN and LSTM over token sequences (Ortiz et al.).

#ifndef LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_RECURRENT_MODELS_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/dense.h"
#include "src/nn/recurrent.h"
#include "src/util/telemetry/stage_timer.h"

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

  nn::Matrix Forward(QueryBatch queries, Workspace* ws) const override {
    telemetry::StageTimer::Mark("encode");
    SequenceWorkspace local;
    SequenceWorkspace& w =
        ws != nullptr ? static_cast<SequenceWorkspace&>(*ws) : local;
    w.seqs.clear();
    for (const query::Query* q : queries) {
      w.seqs.push_back(nn::Matrix::Stack(encoder().SequenceEncode(*q)));
    }
    telemetry::StageTimer::Mark("forward");
    // One length-packed time-major pass over all sequences, then one
    // multi-row head pass and the sigmoid.
    w.hs = cell_->Forward(w.seqs, ws != nullptr ? &w.cell : nullptr);
    nn::Matrix out = head_->Forward(w.hs);
    for (int i = 0; i < out.rows(); ++i) {
      out.At(i, 0) = 1.0f / (1.0f + std::exp(-out.At(i, 0)));
    }
    if (ws != nullptr) w.out = out;
    return out;
  }

  void Backward(const nn::Matrix& dpred, Workspace* ws) override {
    auto& w = static_cast<SequenceWorkspace&>(*ws);
    nn::Matrix g(dpred.rows(), 1);
    for (int i = 0; i < g.rows(); ++i) {
      const float y = w.out.At(i, 0);
      g.At(i, 0) = dpred.At(i, 0) * y * (1.0f - y);  // through the sigmoid
    }
    nn::Matrix dh;
    head_->Backward(w.hs, g, &dh);
    cell_->Backward(w.seqs, w.cell, dh);
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
    std::vector<nn::Matrix> seqs;  // one T_i x token_dim matrix per query
    typename Cell::Tape cell;
    nn::Matrix hs;   // final hidden state per query
    nn::Matrix out;  // sigmoid output per query
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
