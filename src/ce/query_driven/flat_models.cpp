#include "src/ce/query_driven/flat_models.h"

#include <algorithm>

#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

struct FlatEstimator::FlatWorkspace : Workspace {
  nn::Matrix x;  // one encoded query per row
  nn::MlpTape tape;
};

std::unique_ptr<NeuralQueryDrivenEstimator::Workspace>
FlatEstimator::NewWorkspace() const {
  return std::make_unique<FlatWorkspace>();
}

nn::Matrix FlatEstimator::Forward(QueryBatch queries, Workspace* ws) const {
  telemetry::StageTimer::Mark("encode");
  nn::Matrix x(static_cast<int>(queries.size()),
               encoder().flat_dim_for(options_.flat_variant));
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<float> row = encoder().FlatEncode(*queries[i],
                                                  options_.flat_variant);
    std::copy(row.begin(), row.end(), x.RowPtr(static_cast<int>(i)));
  }
  telemetry::StageTimer::Mark("forward");
  if (ws == nullptr) return net_->Forward(x);
  auto* w = static_cast<FlatWorkspace*>(ws);
  w->x = std::move(x);
  return net_->Forward(w->x, &w->tape);
}

void FlatEstimator::Backward(const nn::Matrix& dpred, Workspace* ws) {
  auto* w = static_cast<FlatWorkspace*>(ws);
  net_->Backward(w->x, w->tape, dpred, /*dx=*/nullptr);
}

void LinearEstimator::InitModel(Rng* rng) {
  int in = encoder().flat_dim_for(options_.flat_variant);
  net_ = std::make_unique<nn::Mlp>(std::vector<int>{in, 1},
                                   nn::Activation::kIdentity,
                                   nn::Activation::kSigmoid, rng);
}

void FcnEstimator::InitModel(Rng* rng) {
  std::vector<int> dims;
  dims.push_back(encoder().flat_dim_for(options_.flat_variant));
  for (int l = 0; l < options_.num_hidden_layers; ++l) {
    dims.push_back(options_.hidden_dim);
  }
  dims.push_back(1);
  net_ = std::make_unique<nn::Mlp>(dims, nn::Activation::kRelu,
                                   nn::Activation::kSigmoid, rng);
}

}  // namespace ce
}  // namespace lce
