// Flat-encoding estimators: Linear and FCN (the "lightweight NN" family).

#ifndef LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/mlp.h"

namespace lce {
namespace ce {

/// An MLP over the flat encoding, one stacked row per query. Subclasses
/// choose the network shape.
class FlatEstimator : public NeuralQueryDrivenEstimator {
 public:
  using NeuralQueryDrivenEstimator::NeuralQueryDrivenEstimator;

 protected:
  std::unique_ptr<Workspace> NewWorkspace() const override;
  void ReserveWorkspace(QueryBatch queries, bool training,
                        Workspace* ws) const override;
  void Encode(QueryBatch queries, Workspace* ws) const override;
  const nn::Matrix& Forward(Workspace* ws, bool training) const override;
  void BackwardChain(Workspace* ws) const override;
  void AddGradSums(std::span<Workspace* const> blocks,
                   nn::GradSums* sums) override;
  std::vector<nn::Param*> Params() override { return net_->Params(); }
  size_t NumParams() const override { return net_ ? net_->NumParams() : 0; }

  std::unique_ptr<nn::Mlp> net_;

 private:
  struct FlatWorkspace;
};

/// Single sigmoid unit over the flat encoding: the study's minimal-capacity
/// reference point (robust, weak fit).
class LinearEstimator : public FlatEstimator {
 public:
  explicit LinearEstimator(NeuralOptions options = {})
      : FlatEstimator(options) {}
  std::string Name() const override { return "Linear"; }

 protected:
  void InitModel(Rng* rng) override;
};

/// Fully-connected network over the flat encoding (Dutt et al.'s LW-NN /
/// the study's FCN). The flat_variant option feeds the encoding ablation.
class FcnEstimator : public FlatEstimator {
 public:
  explicit FcnEstimator(NeuralOptions options = {})
      : FlatEstimator(options) {}
  std::string Name() const override { return "FCN"; }

 protected:
  void InitModel(Rng* rng) override;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_FLAT_MODELS_H_
