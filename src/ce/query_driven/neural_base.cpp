#include "src/ce/query_driven/neural_base.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "src/nn/serialize.h"
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

void NeuralQueryDrivenEstimator::Train(
    const std::vector<query::LabeledQuery>& queries, int epochs, bool update) {
  const char* phase_name = update ? "nn/update_epoch" : "nn/epoch";
  std::vector<int> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::unique_ptr<Workspace> ws = NewWorkspace();
  const bool train_log = telemetry::TrainLogEnabled();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    telemetry::ScopedPhase phase(phase_name);
    telemetry::TraceSpan span(phase_name);
    int64_t epoch_start = train_log ? telemetry::MonotonicNanos() : 0;
    last_epoch_loss_ = RunEpoch(queries, &order, ws.get());
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
}

double NeuralQueryDrivenEstimator::RunEpoch(
    const std::vector<query::LabeledQuery>& queries, std::vector<int>* order,
    Workspace* ws) {
  rng_.Shuffle(order);
  double epoch_loss = 0;
  const size_t n = order->size();
  const size_t batch_size = static_cast<size_t>(options_.batch_size);
  size_t batches = 0;
  std::vector<const query::Query*> batch;
  batch.reserve(std::min(n, batch_size));
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(n, start + batch_size);
    const int b = static_cast<int>(end - start);
    batch.clear();
    for (size_t i = start; i < end; ++i) {
      batch.push_back(&queries[(*order)[i]].q);
    }
    nn::Matrix pred = Forward(batch, ws);
    nn::Matrix dpred(b, 1);
    double batch_loss = 0;
    for (int i = 0; i < b; ++i) {
      const query::LabeledQuery& lq = queries[(*order)[start + i]];
      float target = encoder_->NormalizeLog(lq.cardinality);
      float diff = pred.At(i, 0) - target;
      switch (options_.loss) {
        case nn::LossKind::kMse:
          batch_loss += static_cast<double>(diff) * diff;
          dpred.At(i, 0) = 2.0f * diff / static_cast<float>(b);
          break;
        case nn::LossKind::kLogQ:
        default:
          batch_loss += std::abs(static_cast<double>(diff));
          dpred.At(i, 0) = (diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f)) /
                           static_cast<float>(b);
          break;
      }
    }
    Backward(dpred, ws);
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

double NeuralQueryDrivenEstimator::EstimateCardinality(const query::Query& q) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateCardinality()");
  // Stage decomposition: Forward marks encode/forward; the denormalize tail
  // is postprocess.
  telemetry::StageTimer stages([this] { return Name(); });
  const query::Query* one = &q;
  float y = Forward(QueryBatch(&one, 1), nullptr).At(0, 0);
  telemetry::StageTimer::Mark("postprocess");
  return encoder_->DenormalizeLog(std::clamp(y, 0.0f, 1.0f));
}

std::vector<double> NeuralQueryDrivenEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) {
  LCE_CHECK_MSG(built_, Name() << ": Build() before EstimateBatch()");
  std::vector<double> out(queries.size());
  if (queries.empty()) return out;
  // Batched stages: histograms record per-query microseconds weighted by the
  // batch size, so batch and per-query paths share one scale.
  telemetry::StageTimer stages([this] { return Name(); },
                               static_cast<uint64_t>(queries.size()));
  std::vector<const query::Query*> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) batch[i] = &queries[i];
  nn::Matrix preds = Forward(batch, nullptr);
  LCE_CHECK(preds.rows() == static_cast<int>(queries.size()));
  telemetry::StageTimer::Mark("postprocess");
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = encoder_->DenormalizeLog(
        std::clamp(preds.At(static_cast<int>(i), 0), 0.0f, 1.0f));
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
    const query::Query* one = &q;
    y = Forward(QueryBatch(&one, 1), nullptr).At(0, 0);
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
