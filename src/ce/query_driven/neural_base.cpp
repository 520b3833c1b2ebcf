#include "src/ce/query_driven/neural_base.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/nn/serialize.h"
#include "src/util/parallel.h"
#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/telemetry/train_log.h"

namespace lce {
namespace ce {

namespace {

// Per-epoch loss telemetry: the loss lands in a histogram (bench manifests
// report its trajectory via quantiles), the freshest value in a gauge, and —
// when tracing — on the epoch's span so the loss curve is readable straight
// off the timeline.
void RecordEpochTelemetry(int epoch, double loss, telemetry::TraceSpan* span) {
  static telemetry::Counter& epochs =
      telemetry::MetricsRegistry::Global().counter("nn.epochs");
  static telemetry::Histogram& loss_hist =
      telemetry::MetricsRegistry::Global().histogram("nn.epoch_loss");
  static telemetry::Gauge& last_loss =
      telemetry::MetricsRegistry::Global().gauge("nn.last_epoch_loss");
  epochs.Increment();
  loss_hist.Observe(loss);
  last_loss.Set(loss);
  span->AddArg("epoch", static_cast<double>(epoch));
  span->AddArg("loss", loss);
}

// Featurization stats of the query's flat encoding (feat_dim /
// feat_nonzeros / feat_l2) for EstimateWithDiagnostics.
void AddFeatureStats(const std::vector<float>& feat, ExplainRecord* rec) {
  double l2 = 0;
  int nonzeros = 0;
  for (float f : feat) {
    l2 += static_cast<double>(f) * f;
    if (f != 0.0f) ++nonzeros;
  }
  rec->AddCounter("feat_dim", static_cast<double>(feat.size()));
  rec->AddCounter("feat_nonzeros", static_cast<double>(nonzeros));
  rec->AddCounter("feat_l2", std::sqrt(l2));
}

}  // namespace

Status NeuralQueryDrivenEstimator::Prepare(const storage::Database& db) {
  rng_ = Rng(options_.seed);
  query::QueryEncoder::Options enc_opts;
  enc_opts.mscn_sample_size = options_.mscn_sample_size;
  encoder_ = std::make_unique<query::QueryEncoder>(&db, enc_opts,
                                                   options_.seed ^ 0x5eedULL);
  InitModel(&rng_);
  adam_ = std::make_unique<nn::Adam>(options_.learning_rate);
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::SaveModel(std::ostream* os) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("no model to save: Build() first");
  }
  nn::SaveParams(Params(), os);
  if (!*os) return Status::Internal("model write failed");
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::LoadModel(std::istream* is) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("Prepare() or Build() before LoadModel");
  }
  Status s = nn::LoadParams(Params(), is);
  if (!s.ok()) return s;
  built_ = true;
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::ValidateTrainingOptions() const {
  if (options_.batch_size < 1) {
    return Status::InvalidArgument(
        Name() + ": batch_size must be >= 1, got " +
        std::to_string(options_.batch_size));
  }
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  Status valid = ValidateTrainingOptions();
  if (!valid.ok()) return valid;
  if (training.empty()) {
    return Status::InvalidArgument(Name() + " needs training queries");
  }
  Status prepared = Prepare(db);
  if (!prepared.ok()) return prepared;
  epoch_losses_.clear();
  Train(training, options_.epochs, /*update=*/false);
  train_examples_ = static_cast<int64_t>(training.size());
  built_ = true;
  return Status::OK();
}

Status NeuralQueryDrivenEstimator::UpdateWithQueries(
    const std::vector<query::LabeledQuery>& queries) {
  Status valid = ValidateTrainingOptions();
  if (!valid.ok()) return valid;
  if (!built_) return Status::FailedPrecondition("Build() before update");
  if (queries.empty()) return Status::OK();
  Train(queries, options_.update_epochs, /*update=*/true);
  return Status::OK();
}

// What one Build or UpdateWithQueries call trains with: one workspace per
// lane, sized once on the calling thread, and the per-minibatch buffers.
struct NeuralQueryDrivenEstimator::TrainContext {
  std::vector<std::unique_ptr<Workspace>> owned;
  std::vector<Workspace*> lanes;
  std::vector<const query::Query*> batch;  // the minibatch, in order
  std::vector<double> loss_terms;          // per row of the minibatch
  int64_t min_block_rows = 1;  // rows carrying nn::kMinLaneWork
  nn::GradSums sums;
};

void NeuralQueryDrivenEstimator::Train(
    const std::vector<query::LabeledQuery>& queries, int epochs, bool update) {
  const char* phase_name = update ? "nn/update_epoch" : "nn/epoch";
  std::vector<int> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  // A minibatch runs as one row block per lane, each of at least
  // min_block_rows rows: a smaller share of a small network's minibatch
  // costs more as a pool task than it saves, so such a minibatch is one
  // block on the calling thread.
  const int64_t batch =
      std::min(options_.batch_size, static_cast<int>(queries.size()));
  TrainContext ctx;
  const int64_t params = std::max<int64_t>(1, NumParams());
  ctx.min_block_rows = (nn::kMinLaneWork + params - 1) / params;
  const int64_t lanes =
      std::min<int64_t>(parallel::ThreadCount(),
                        (batch + ctx.min_block_rows - 1) / ctx.min_block_rows);
  ctx.batch.reserve(batch);
  ctx.loss_terms.reserve(batch);
  for (int64_t l = 0; l < lanes; ++l) {
    ctx.owned.push_back(NewWorkspace());
    ctx.lanes.push_back(ctx.owned.back().get());
  }
  // Gradients exist only while a Build or update trains: a built model
  // keeps its weights and Adam moments, not a third copy of every weight.
  for (nn::Param* p : Params()) {
    p->grad = nn::Matrix(p->value.rows(), p->value.cols());
  }
  const bool train_log = telemetry::TrainLogEnabled();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    telemetry::ScopedPhase phase(phase_name);
    telemetry::TraceSpan span(phase_name);
    int64_t epoch_start = train_log ? telemetry::MonotonicNanos() : 0;
    last_epoch_loss_ = RunEpoch(queries, &order, &ctx);
    epoch_losses_.push_back(last_epoch_loss_);
    RecordEpochTelemetry(epoch, last_epoch_loss_, &span);
    if (train_log) {
      telemetry::TrainingEvent ev;
      ev.model = Name();
      ev.family = "nn";
      ev.event = "epoch";
      ev.index = epoch;
      ev.loss = last_epoch_loss_;
      ev.grad_norm = last_grad_norm_;
      ev.learning_rate = options_.learning_rate;
      ev.examples = static_cast<int64_t>(queries.size());
      ev.wall_seconds =
          static_cast<double>(telemetry::MonotonicNanos() - epoch_start) / 1e9;
      if (update) ev.extra.emplace_back("update", 1.0);
      telemetry::RecordTrainingEvent(std::move(ev));
    }
  }
  for (nn::Param* p : Params()) p->grad = nn::Matrix();
}

double NeuralQueryDrivenEstimator::RunEpoch(
    const std::vector<query::LabeledQuery>& queries, std::vector<int>* order,
    TrainContext* ctx) {
  rng_.Shuffle(order);
  double epoch_loss = 0;
  const size_t n = order->size();
  const size_t batch_size = static_cast<size_t>(options_.batch_size);
  const int64_t lanes = static_cast<int64_t>(ctx->lanes.size());
  size_t batches = 0;
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(n, start + batch_size);
    const int b = static_cast<int>(end - start);
    ctx->batch.clear();
    for (size_t i = start; i < end; ++i) {
      ctx->batch.push_back(&queries[(*order)[i]].q);
    }
    ctx->loss_terms.resize(b);
    const int64_t grain =
        std::max((b + lanes - 1) / lanes, ctx->min_block_rows);
    const int64_t blocks = (b + grain - 1) / grain;
    // The calling thread grows each lane's workspace to its block: the
    // capacity ends at the largest block of the run, and lanes never
    // allocate.
    for (int64_t c = 0; c < blocks; ++c) {
      const int64_t rows = std::min<int64_t>(grain, b - c * grain);
      Workspace* ws = ctx->lanes[static_cast<size_t>(c)];
      ReserveWorkspace(QueryBatch(ctx->batch.data() + c * grain,
                                  static_cast<size_t>(rows)),
                       /*training=*/true, ws);
      ws->dpred.Reserve(static_cast<int>(rows), 1);
    }
    // Phase A: each lane takes one contiguous block of rows through encode,
    // forward, loss and the backward chain; rows never interact, and the
    // kernels inside run inline on the lane. A single block runs on the
    // calling thread, its kernels fanning out on their own.
    parallel::ParallelForChunks(
        0, b, grain, [&](int64_t block, int64_t r0, int64_t r1) {
          Workspace* ws = ctx->lanes[static_cast<size_t>(block)];
          Encode(QueryBatch(ctx->batch.data() + r0,
                            static_cast<size_t>(r1 - r0)),
                 ws);
          const nn::Matrix& pred = Forward(ws, /*training=*/true);
          ws->dpred.Resize(static_cast<int>(r1 - r0), 1);
          for (int64_t r = r0; r < r1; ++r) {
            const int i = static_cast<int>(r - r0);
            const query::LabeledQuery& lq = queries[(*order)[start + r]];
            float target = encoder_->NormalizeLog(lq.cardinality);
            float diff = pred.At(i, 0) - target;
            double& term = ctx->loss_terms[static_cast<size_t>(r)];
            switch (options_.loss) {
              case nn::LossKind::kMse:
                term = static_cast<double>(diff) * diff;
                ws->dpred.At(i, 0) = 2.0f * diff / static_cast<float>(b);
                break;
              case nn::LossKind::kLogQ:
              default:
                term = std::abs(static_cast<double>(diff));
                ws->dpred.At(i, 0) =
                    (diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f)) /
                    static_cast<float>(b);
                break;
            }
          }
          BackwardChain(ws);
        });
    double batch_loss = 0;
    for (double term : ctx->loss_terms) batch_loss += term;
    // Phase B: every weight gradient, the blocks added in order.
    ctx->sums.Clear();
    AddGradSums(std::span<Workspace* const>(ctx->lanes.data(),
                                            static_cast<size_t>(blocks)),
                &ctx->sums);
    ctx->sums.Run();
    // Gradient norm is read *before* Adam consumes (and zeroes) the grads;
    // only when the training log wants it — outputs stay bit-identical with
    // the gate off since nothing else observes the value.
    if (telemetry::TrainLogEnabled()) {
      double sq_sum = 0;
      for (nn::Param* p : Params()) {
        for (int r = 0; r < p->grad.rows(); ++r) {
          const float* row = p->grad.RowPtr(r);
          for (int c = 0; c < p->grad.cols(); ++c) {
            sq_sum += static_cast<double>(row[c]) * row[c];
          }
        }
      }
      last_grad_norm_ = std::sqrt(sq_sum);
    }
    adam_->Step(Params());
    epoch_loss += batch_loss / b;
    ++batches;
  }
  return batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
}

void NeuralQueryDrivenEstimator::ForwardBlock(QueryBatch queries,
                                              float* ys) const {
  std::unique_ptr<Workspace> ws = NewWorkspace();
  telemetry::StageTimer::Mark("encode");
  Encode(queries, ws.get());
  telemetry::StageTimer::Mark("forward");
  const nn::Matrix& preds = Forward(ws.get(), /*training=*/false);
  for (int i = 0; i < preds.rows(); ++i) ys[i] = preds.At(i, 0);
}

float NeuralQueryDrivenEstimator::ForwardOne(const query::Query& q) const {
  const query::Query* one = &q;
  float y;
  ForwardBlock(QueryBatch(&one, 1), &y);
  return y;
}

double NeuralQueryDrivenEstimator::EstimateCardinality(const query::Query& q) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateCardinality()");
  // Stage decomposition: ForwardOne marks encode/forward; the denormalize
  // tail is postprocess.
  telemetry::StageTimer stages([this] { return Name(); });
  float y = ForwardOne(q);
  telemetry::StageTimer::Mark("postprocess");
  return encoder_->DenormalizeLog(std::clamp(y, 0.0f, 1.0f));
}

std::vector<double> NeuralQueryDrivenEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateBatch()");
  const int n = static_cast<int>(queries.size());
  std::vector<double> out(queries.size());
  if (n == 0) return out;
  // Batched stages: histograms record per-query microseconds weighted by the
  // batch size, so batch and per-query paths share one scale.
  telemetry::StageTimer stages([this] { return Name(); },
                               static_cast<uint64_t>(n));
  std::vector<const query::Query*> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) batch[i] = &queries[i];
  std::vector<float> ys(queries.size());
  if (n <= kOneBlockQueries) {
    ForwardBlock(batch, ys.data());
  } else {
    // Blocks of kLaneBlockQueries on the lanes, lane l taking blocks l, l +
    // lanes, ...; the blocks mark no stages, so encode and forward are one
    // stage of this call.
    telemetry::StageTimer::Mark("forward");
    const int blocks = (n + kLaneBlockQueries - 1) / kLaneBlockQueries;
    const int lanes = std::min(parallel::ThreadCount(), blocks);
    std::vector<std::unique_ptr<Workspace>> ws;
    for (int l = 0; l < lanes; ++l) ws.push_back(NewWorkspace());
    // Each lane's workspace grows to the largest of its blocks, on the
    // calling thread.
    for (int blk = 0; blk < blocks; ++blk) {
      const int r0 = blk * kLaneBlockQueries;
      const int rows = std::min(kLaneBlockQueries, n - r0);
      ReserveWorkspace(QueryBatch(batch.data() + r0, static_cast<size_t>(rows)),
                       /*training=*/false, ws[blk % lanes].get());
    }
    parallel::ParallelForChunks(
        0, lanes, 1, [&](int64_t lane, int64_t, int64_t) {
          Workspace* w = ws[static_cast<size_t>(lane)].get();
          for (int blk = static_cast<int>(lane); blk < blocks; blk += lanes) {
            const int r0 = blk * kLaneBlockQueries;
            const int rows = std::min(kLaneBlockQueries, n - r0);
            Encode(QueryBatch(batch.data() + r0, static_cast<size_t>(rows)),
                   w);
            const nn::Matrix& preds = Forward(w, /*training=*/false);
            for (int i = 0; i < rows; ++i) ys[r0 + i] = preds.At(i, 0);
          }
        });
  }
  telemetry::StageTimer::Mark("postprocess");
  for (int i = 0; i < n; ++i) {
    out[i] = encoder_->DenormalizeLog(std::clamp(ys[i], 0.0f, 1.0f));
  }
  return out;
}

double NeuralQueryDrivenEstimator::EstimateWithDiagnostics(
    const query::Query& q, ExplainRecord* rec) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateCardinality()");
  rec->estimator = Name();
  FillQueryShape(q, rec);
  for (const query::Predicate& p : q.predicates) {
    // Learned models estimate jointly; no per-predicate attribution.
    rec->predicates.push_back({p.col.table, p.col.column, p.lo, p.hi, -1.0,
                               "learned"});
  }
  double est;
  float y, clamped;
  {
    telemetry::StageTimer stages([this] { return Name(); });
    y = ForwardOne(q);
    telemetry::StageTimer::Mark("postprocess");
    clamped = std::clamp(y, 0.0f, 1.0f);
    est = encoder_->DenormalizeLog(clamped);
  }

  rec->AddCounter("pred_normalized", static_cast<double>(y));
  AddFeatureStats(encoder_->FlatEncode(q, options_.flat_variant), rec);
  if (y != clamped) {
    rec->AddFallback("nn.output_clamped",
                     "sigmoid output " + std::to_string(y) +
                         " clamped to [0,1] before denormalization");
  }
  rec->estimate = est;
  return est;
}

uint64_t NeuralQueryDrivenEstimator::SizeBytes() const {
  return NumParams() * sizeof(float);
}

void NeuralQueryDrivenEstimator::DescribeModel(
    telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "nn";
  card->parameter_count = static_cast<int64_t>(NumParams());
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  card->epochs = static_cast<int64_t>(epoch_losses_.size());
  if (!epoch_losses_.empty()) card->final_train_loss = last_epoch_loss_;
}

}  // namespace ce
}  // namespace lce
