#include "src/nn/mlp.h"

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

Matrix Mlp::Forward(const Matrix& x, MlpTape* tape) const {
  if (tape == nullptr) {
    Matrix cur = layers_[0]->Forward(x, acts_[0]);
    for (size_t i = 1; i < layers_.size(); ++i) {
      cur = layers_[i]->Forward(cur, acts_[i]);
    }
    return cur;
  }
  tape->outputs.resize(layers_.size());
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    tape->outputs[i] = layers_[i]->Forward(*cur, acts_[i]);
    cur = &tape->outputs[i];
  }
  return *cur;
}

void Mlp::Backward(const Matrix& x, const MlpTape& tape, const Matrix& dout,
                   Matrix* dx, const std::vector<int>* segments) {
  LCE_CHECK_MSG(tape.outputs.size() == layers_.size(),
                "Backward without a matching Forward");
  Matrix grad = dout;
  for (size_t i = layers_.size(); i-- > 0;) {
    grad = ActivationBackward(acts_[i], tape.outputs[i], std::move(grad));
    const Matrix& input = i > 0 ? tape.outputs[i - 1] : x;
    const bool want_dinput = i > 0 || dx != nullptr;
    Matrix dinput;
    layers_[i]->Backward(input, grad, want_dinput ? &dinput : nullptr,
                         segments);
    grad = std::move(dinput);
  }
  if (dx != nullptr) *dx = std::move(grad);
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
