#include "src/ce/query_driven/flat_models.h"

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

void FlatEstimator::ReserveWorkspace(QueryBatch queries, bool training,
                                     Workspace* ws) const {
  auto* w = static_cast<FlatWorkspace*>(ws);
  const int rows = static_cast<int>(queries.size());
  w->x.Reserve(rows, encoder().flat_dim_for(options_.flat_variant));
  net_->Reserve(rows, training, &w->tape);
}

void FlatEstimator::Encode(QueryBatch queries, Workspace* ws) const {
  auto* w = static_cast<FlatWorkspace*>(ws);
  w->x.Resize(static_cast<int>(queries.size()),
              encoder().flat_dim_for(options_.flat_variant));
  for (size_t i = 0; i < queries.size(); ++i) {
    encoder().FlatEncodeInto(*queries[i], options_.flat_variant,
                             w->x.RowPtr(static_cast<int>(i)));
  }
}

const nn::Matrix& FlatEstimator::Forward(Workspace* ws, bool) const {
  auto* w = static_cast<FlatWorkspace*>(ws);
  return net_->Forward(w->x, &w->tape);
}

void FlatEstimator::BackwardChain(Workspace* ws) const {
  auto* w = static_cast<FlatWorkspace*>(ws);
  net_->BackwardChain(w->dpred, &w->tape, /*dx=*/nullptr);
}

void FlatEstimator::AddGradSums(std::span<Workspace* const> blocks,
                                nn::GradSums* sums) {
  std::vector<nn::MlpBlock> mlp_blocks;
  for (Workspace* ws : blocks) {
    auto* w = static_cast<FlatWorkspace*>(ws);
    mlp_blocks.push_back({&w->x, &w->tape});
  }
  net_->AddGradSums(mlp_blocks, sums);
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
