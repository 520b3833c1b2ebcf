// Set-based estimators: MSCN (Kipf et al.) and FCN+Pool.
//
// Both consume the {tables, joins, predicates} token sets: each set runs
// through its own sub-MLP, tokens are mean-pooled per set, the pooled
// vectors are concatenated, and a head MLP emits the sigmoid output. MSCN's
// table tokens carry materialized-sample bitmaps; FCN+Pool's do not — that
// is the architectural difference the study isolates.

#ifndef LCE_CE_QUERY_DRIVEN_SET_MODELS_H_
#define LCE_CE_QUERY_DRIVEN_SET_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/query_driven/neural_base.h"
#include "src/nn/mlp.h"

namespace lce {
namespace ce {

class SetBasedEstimator : public NeuralQueryDrivenEstimator {
 public:
  SetBasedEstimator(NeuralOptions options, bool use_sample_bitmap)
      : NeuralQueryDrivenEstimator(options),
        use_sample_bitmap_(use_sample_bitmap) {}

 protected:
  void InitModel(Rng* rng) override;
  std::unique_ptr<Workspace> NewWorkspace() const override;
  void ReserveWorkspace(QueryBatch queries, bool training,
                        Workspace* ws) const override;
  void Encode(QueryBatch queries, Workspace* ws) const override;
  const nn::Matrix& Forward(Workspace* ws, bool training) const override;
  void BackwardChain(Workspace* ws) const override;
  void AddGradSums(std::span<Workspace* const> blocks,
                   nn::GradSums* sums) override;
  std::vector<nn::Param*> Params() override;
  size_t NumParams() const override;

 private:
  struct SetWorkspace;

  /// Width of a table token: MSCN's carries the sample bitmap.
  int TableDim() const;

  bool use_sample_bitmap_;
  // One sub-MLP per token set, in the order of the pooled vector's column
  // blocks: tables, joins, predicates.
  std::unique_ptr<nn::Mlp> set_mlps_[3];
  std::unique_ptr<nn::Mlp> head_;
};

class MscnEstimator : public SetBasedEstimator {
 public:
  explicit MscnEstimator(NeuralOptions options = {})
      : SetBasedEstimator(options, /*use_sample_bitmap=*/true) {}
  std::string Name() const override { return "MSCN"; }
};

class FcnPoolEstimator : public SetBasedEstimator {
 public:
  explicit FcnPoolEstimator(NeuralOptions options = {})
      : SetBasedEstimator(options, /*use_sample_bitmap=*/false) {}
  std::string Name() const override { return "FCN+Pool"; }
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_SET_MODELS_H_
