#include "src/nn/mlp.h"

#include <algorithm>

namespace lce {
namespace nn {

Mlp::Mlp(const std::vector<int>& dims, Activation hidden_act,
         Activation output_act, Rng* rng) {
  LCE_CHECK_MSG(dims.size() >= 2, "Mlp needs at least {in, out} dims");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    acts_.push_back(i + 2 < dims.size() ? hidden_act : output_act);
  }
}

Matrix Mlp::Forward(const Matrix& x) const {
  Matrix cur = layers_[0]->Forward(x, acts_[0]);
  for (size_t i = 1; i < layers_.size(); ++i) {
    cur = layers_[i]->Forward(cur, acts_[i]);
  }
  return cur;
}

const Matrix& Mlp::Forward(const Matrix& x, MlpTape* tape) const {
  if (tape->outputs.size() < layers_.size()) {
    tape->outputs.resize(layers_.size());
  }
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardInto(*cur, acts_[i], &tape->outputs[i]);
    cur = &tape->outputs[i];
  }
  return *cur;
}

void Mlp::Reserve(int rows, bool backward, MlpTape* tape) const {
  tape->outputs.resize(std::max(tape->outputs.size(), layers_.size()));
  if (backward) {
    tape->dpre.resize(std::max(tape->dpre.size(), layers_.size()));
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    const int out = layers_[i]->out_dim();
    tape->outputs[i].Reserve(rows, out);
    if (!backward) continue;
    tape->dpre[i].Reserve(rows, out);
    tape->packed.Reserve(out, layers_[i]->in_dim());
  }
}

void Mlp::BackwardChain(const Matrix& dout, MlpTape* tape, Matrix* dx) const {
  const size_t n = layers_.size();
  LCE_CHECK_MSG(tape->outputs.size() >= n,
                "BackwardChain without a matching Forward");
  if (tape->dpre.size() < n) tape->dpre.resize(n);
  tape->dpre[n - 1] = dout;
  for (size_t i = n; i-- > 0;) {
    tape->dpre[i] = ActivationBackward(acts_[i], tape->outputs[i],
                                       std::move(tape->dpre[i]));
    Matrix* dinput = i > 0 ? &tape->dpre[i - 1] : dx;
    if (dinput != nullptr) {
      layers_[i]->BackwardInput(tape->dpre[i], dinput, &tape->packed);
    }
  }
}

void Mlp::AddGradSums(std::span<const MlpBlock> blocks, GradSums* sums) {
  std::vector<GradBlock> layer_blocks;
  layer_blocks.reserve(blocks.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    layer_blocks.clear();
    for (const MlpBlock& b : blocks) {
      layer_blocks.push_back({i > 0 ? &b.tape->outputs[i - 1] : b.x,
                              &b.tape->dpre[i], b.segments});
    }
    layers_[i]->AddGradSums(layer_blocks, sums);
  }
}

void Mlp::Backward(const Matrix& x, MlpTape* tape, const Matrix& dout,
                   Matrix* dx, const std::vector<int>* segments) {
  BackwardChain(dout, tape, dx);
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->AccumulateGradients(i > 0 ? tape->outputs[i - 1] : x,
                                    tape->dpre[i], segments);
  }
}

std::vector<Param*> Mlp::Params() {
  std::vector<Param*> params;
  for (auto& layer : layers_) {
    for (Param* p : layer->Params()) params.push_back(p);
  }
  return params;
}

size_t Mlp::NumParams() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    n += static_cast<size_t>(layer->in_dim()) * layer->out_dim() +
         layer->out_dim();
  }
  return n;
}

}  // namespace nn
}  // namespace lce
