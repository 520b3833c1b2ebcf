// Shared training/inference plumbing of the six query-driven neural
// estimators (Linear, FCN, FCN+Pool, MSCN, RNN, LSTM).
//
// The base class owns the encoder snapshot, label normalization, the Adam
// loop (minibatch accumulation, fixed epochs, deterministic shuffling),
// incremental updates, and the row-block schedule (DESIGN.md §6): each
// minibatch runs as two parallel regions, phase A taking each lane's block
// of queries through encode, forward, loss and the backward chain, phase B
// summing every weight gradient. Subclasses provide the per-block encode,
// forward and backward chain, their gradient sums and their parameters.
// All models emit a sigmoid output interpreted as normalized
// log-cardinality, following the standard query-driven recipe.

#ifndef LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_
#define LCE_CE_QUERY_DRIVEN_NEURAL_BASE_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "src/ce/estimator.h"
#include "src/nn/adam.h"
#include "src/nn/grad_sums.h"
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
  /// One batched Forward for the whole request vector, then the shared
  /// clamp + denormalize tail per query. EstimateImpl is the batch of one,
  /// so the two agree bit for bit by the kernel-layer contract.
  std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) override;
  bool HasBatchEstimate() const override { return true; }
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
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

  /// The queries of one row block: a view, nothing is copied.
  using QueryBatch = std::span<const query::Query* const>;

  /// A batch of at most this many queries is one block on the calling
  /// thread whose kernels fan out on their own (every serving flush at the
  /// default batch cap, every batch of one).
  static constexpr int kOneBlockQueries = 64;
  /// Queries per block of a larger EstimateBatch, run block by block on the
  /// lanes: activations of lanes x 16 queries are in flight at once.
  static constexpr int kLaneBlockQueries = 16;

  /// One row block's activations and, in training, its backward chain: a
  /// lane's private scratch. Each family extends it. One serves a lane for
  /// a whole Build, UpdateWithQueries or EstimateBatch call; the calling
  /// thread grows it to each block before the block runs
  /// (ReserveWorkspace), and lanes reshape its matrices in place and so
  /// allocate nothing.
  struct Workspace {
    virtual ~Workspace() = default;
    nn::Matrix dpred;  // dL/d(output) of the block's rows (training)
  };

  /// Builds the network(s); called once after the encoder exists.
  virtual void InitModel(Rng* rng) = 0;
  virtual std::unique_ptr<Workspace> NewWorkspace() const = 0;
  /// Grows `ws` to fit the block `queries` and, with `training`, its
  /// BackwardChain. Capacity never shrinks, so once every block a lane
  /// will run has been reserved, none of them allocates.
  virtual void ReserveWorkspace(QueryBatch queries, bool training,
                                Workspace* ws) const = 0;
  /// Encodes one block of queries into `ws`.
  virtual void Encode(QueryBatch queries, Workspace* ws) const = 0;
  /// The family's one forward pass over the block encoded in `ws`: its
  /// sigmoid outputs (rows x 1, held in `ws`), with one batched kernel call
  /// per layer (per timestep for the recurrent cells). `training` records
  /// what BackwardChain needs. A row's value does not depend on the other
  /// rows. Writes no member.
  virtual const nn::Matrix& Forward(Workspace* ws, bool training) const = 0;
  /// Phase A of the backward of the training Forward last run in `ws`,
  /// given ws->dpred: the per-row dX/dh chain, leaving in `ws` what the
  /// gradient sums read. Writes no member.
  virtual void BackwardChain(Workspace* ws) const = 0;
  /// Phase B: adds the family's weight-gradient sums over `blocks` (the
  /// minibatch's row blocks, in order) to `sums`. Each gradient adds the
  /// same products in the same order and grouping as one backward per
  /// query, in query order, would — so the trained weights are
  /// bit-identical to training one query at a time, at any lane count
  /// (DESIGN.md §10).
  virtual void AddGradSums(std::span<Workspace* const> blocks,
                           nn::GradSums* sums) = 0;
  virtual std::vector<nn::Param*> Params() = 0;
  // Const access for SizeBytes(); default delegates via const_cast-free
  // duplication in subclasses would be noisy, so expose a count instead.
  virtual size_t NumParams() const = 0;

  const query::QueryEncoder& encoder() const { return *encoder_; }

 private:
  struct TrainContext;

  /// Rejects options no training run can use (batch_size < 1).
  Status ValidateTrainingOptions() const;
  /// `epochs` passes over `queries` with one set of lane workspaces;
  /// `update` (an UpdateWithQueries round) names the epoch phase and marks
  /// the training-log events.
  void Train(const std::vector<query::LabeledQuery>& queries, int epochs,
             bool update);
  /// One pass over `queries` in minibatches; returns the mean loss.
  double RunEpoch(const std::vector<query::LabeledQuery>& queries,
                  std::vector<int>* order, TrainContext* ctx);
  /// The sigmoid outputs of `queries` into ys[0, n), as one block on the
  /// calling thread whose kernels fan out on their own; marks the encode
  /// and forward stages.
  void ForwardBlock(QueryBatch queries, float* ys) const;

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
