// Shared training/inference plumbing of the six query-driven neural
// estimators (Linear, FCN, FCN+Pool, MSCN, RNN, LSTM).
//
// The base class owns the encoder snapshot, label normalization, the Adam
// loop (minibatch accumulation, fixed epochs, deterministic shuffling) and
// incremental updates; subclasses provide one batched forward/backward and
// their parameter list. All models emit a sigmoid output interpreted as
// normalized log-cardinality, following the standard query-driven recipe.

#ifndef LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_
#define LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "src/ce/estimator.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/nn/matrix.h"
#include "src/query/encoder.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

struct NeuralOptions {
  int hidden_dim = 64;
  int num_hidden_layers = 2;
  int epochs = 30;
  int batch_size = 64;
  float learning_rate = 1e-3f;
  nn::LossKind loss = nn::LossKind::kLogQ;
  /// Epochs used by UpdateWithQueries (incremental training).
  int update_epochs = 8;
  uint64_t seed = 42;
  /// Flat-encoding variant (FCN family only; the R12 ablation knob).
  query::FlatVariant flat_variant = query::FlatVariant::kFull;
  /// MSCN bitmap width.
  int mscn_sample_size = 64;
};

class NeuralQueryDrivenEstimator : public Estimator {
 public:
  explicit NeuralQueryDrivenEstimator(NeuralOptions options)
      : options_(options) {}

  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  double EstimateCardinality(const query::Query& q) override;
  /// One batched Forward for the whole request vector, then the shared
  /// clamp + denormalize tail per query. EstimateCardinality is the batch
  /// of one, so the two agree bit for bit by the kernel-layer contract.
  std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) override;
  bool HasBatchEstimate() const override { return true; }
  double EstimateWithDiagnostics(const query::Query& q,
                                 ExplainRecord* rec) override;
  Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) override;
  uint64_t SizeBytes() const override;
  void DescribeModel(telemetry::ModelCard* card) const override;

  /// Initializes encoder and network against `db` without training — the
  /// precondition for LoadModel on a fresh instance.
  Status Prepare(const storage::Database& db);

  /// Serializes the trained parameters (not the optimizer state).
  Status SaveModel(std::ostream* os);

  /// Restores parameters into a Prepare()d or Build()t model of identical
  /// hyperparameters and schema; the estimator is usable afterwards.
  Status LoadModel(std::istream* is);

  /// Mean training loss of the last completed epoch (convergence reporting).
  double last_epoch_loss() const { return last_epoch_loss_; }
  /// Per-epoch mean losses of the initial Build (the convergence curve R18
  /// plots); incremental updates append to it.
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }
  const NeuralOptions& options() const { return options_; }

 protected:
  /// The queries of one forward pass: a view, nothing is copied.
  using QueryBatch = std::span<const query::Query* const>;

  /// What a training forward keeps for its backward. Each family extends
  /// it; one instance serves a whole Build or UpdateWithQueries call, and
  /// each minibatch's Forward replaces the matrices it holds with newly
  /// allocated ones.
  struct Workspace {
    virtual ~Workspace() = default;
  };

  /// Builds the network(s); called once after the encoder exists.
  virtual void InitModel(Rng* rng) = 0;
  virtual std::unique_ptr<Workspace> NewWorkspace() const = 0;
  /// The family's one forward pass: the sigmoid outputs (B x 1) for
  /// `queries`, in order, with one batched kernel call per layer (per
  /// timestep for the recurrent cells). Inference passes `ws` == nullptr and
  /// writes no member; training passes the workspace, which records what
  /// Backward needs. A row's value does not depend on the other rows.
  virtual nn::Matrix Forward(QueryBatch queries, Workspace* ws) const = 0;
  /// Backward of the last Forward recorded in `ws`, given dL/d(output) per
  /// query (B x 1). Accumulates parameter gradients, each adding the same
  /// products in the same order and grouping as one backward per query, in
  /// query order, would — so the trained weights are bit-identical to
  /// training one query at a time (DESIGN.md §10).
  virtual void Backward(const nn::Matrix& dpred, Workspace* ws) = 0;
  virtual std::vector<nn::Param*> Params() = 0;
  // Const access for SizeBytes(); default delegates via const_cast-free
  // duplication in subclasses would be noisy, so expose a count instead.
  virtual size_t NumParams() const = 0;

  const query::QueryEncoder& encoder() const { return *encoder_; }

 private:
  /// Rejects options no training run can use (batch_size < 1).
  Status ValidateTrainingOptions() const;
  /// `epochs` passes over `queries` with one workspace; `update` (an
  /// UpdateWithQueries round) names the epoch phase and marks the
  /// training-log events.
  void Train(const std::vector<query::LabeledQuery>& queries, int epochs,
             bool update);
  /// One pass over `queries` in minibatches; returns the mean loss.
  double RunEpoch(const std::vector<query::LabeledQuery>& queries,
                  std::vector<int>* order, Workspace* ws);

 protected:
  NeuralOptions options_;

 private:
  std::unique_ptr<query::QueryEncoder> encoder_;
  std::unique_ptr<nn::Adam> adam_;
  Rng rng_{42};
  double last_epoch_loss_ = 0;
  // Pre-step gradient L2 norm of the last minibatch; only maintained while
  // the training log is enabled (-1 otherwise).
  double last_grad_norm_ = -1.0;
  std::vector<double> epoch_losses_;
  int64_t train_examples_ = -1;
  bool built_ = false;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_
