#include "src/ce/query_driven/lwxgb_model.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace ce {

Status LwXgbEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  if (training.empty()) {
    return Status::InvalidArgument("LW-XGB needs training queries");
  }
  encoder_ = std::make_unique<query::QueryEncoder>(
      &db, query::QueryEncoder::Options{}, options_.seed);
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  rows.reserve(training.size());
  targets.reserve(training.size());
  {
    telemetry::ScopedPhase phase("lwxgb/encode");
    for (const auto& lq : training) {
      rows.push_back(encoder_->FlatEncode(lq.q, options_.flat_variant));
      targets.push_back(encoder_->NormalizeLog(lq.cardinality));
    }
  }
  telemetry::ScopedPhase phase("lwxgb/fit");
  model_ = std::make_unique<gbdt::GradientBoosting>(options_.gbdt);
  model_->Fit(rows, targets);
  train_examples_ = static_cast<int64_t>(training.size());
  return Status::OK();
}

double LwXgbEstimator::EstimateImpl(const query::Query& q,
                                    ExplainRecord* rec) const {
  LCE_CHECK_MSG(model_ != nullptr, "Build() before EstimateCardinality()");
  telemetry::StageTimer::Mark("encode");
  std::vector<float> row = encoder_->FlatEncode(q, options_.flat_variant);
  telemetry::StageTimer::Mark("traverse");
  gbdt::GradientBoosting::PredictStats stats;
  float y = model_->Predict(row, &stats);
  telemetry::StageTimer::Mark("postprocess");
  float clamped = std::clamp(y, 0.0f, 1.0f);
  if (rec != nullptr) {
    for (const query::Predicate& p : q.predicates) {
      // Tree ensembles estimate jointly; no per-predicate attribution.
      rec->predicates.push_back({p.col.table, p.col.column, p.lo, p.hi, -1.0,
                                 "gbdt"});
    }
    rec->AddCounter("pred_normalized", static_cast<double>(y));
    rec->AddCounter("trees", static_cast<double>(stats.trees));
    rec->AddCounter("nodes_visited", static_cast<double>(stats.nodes_visited));
    rec->AddCounter("mean_path_depth", stats.mean_path_depth);
    rec->AddCounter("max_path_depth",
                    static_cast<double>(stats.max_path_depth));
    if (y != clamped) {
      rec->AddFallback("gbdt.output_clamped",
                       "ensemble output " + std::to_string(y) +
                           " clamped to [0,1] before denormalization");
    }
  }
  return encoder_->DenormalizeLog(clamped);
}

std::vector<double> LwXgbEstimator::EstimateBatch(
    const std::vector<query::Query>& queries) {
  LCE_CHECK_MSG(model_ != nullptr, "Build() before EstimateBatch()");
  // Batched stages: histograms record per-query microseconds weighted by
  // the batch size, so batch and per-query paths share one scale.
  telemetry::StageTimer stages([this] { return Name(); },
                               static_cast<uint64_t>(queries.size()));
  stages.Stage("encode");
  std::vector<std::vector<float>> rows;
  rows.reserve(queries.size());
  for (const query::Query& q : queries) {
    rows.push_back(encoder_->FlatEncode(q, options_.flat_variant));
  }
  stages.Stage("traverse");
  std::vector<float> preds = model_->PredictBatch(rows);
  stages.Stage("postprocess");
  std::vector<double> out;
  out.reserve(preds.size());
  for (float y : preds) {
    out.push_back(encoder_->DenormalizeLog(std::clamp(y, 0.0f, 1.0f)));
  }
  return out;
}

Status LwXgbEstimator::UpdateWithQueries(
    const std::vector<query::LabeledQuery>& queries) {
  if (model_ == nullptr) return Status::FailedPrecondition("Build() first");
  if (queries.empty()) return Status::OK();
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  for (const auto& lq : queries) {
    rows.push_back(encoder_->FlatEncode(lq.q, options_.flat_variant));
    targets.push_back(encoder_->NormalizeLog(lq.cardinality));
  }
  model_->Boost(rows, targets, options_.update_trees);
  return Status::OK();
}

uint64_t LwXgbEstimator::SizeBytes() const {
  return model_ ? model_->SizeBytes() : 0;
}

void LwXgbEstimator::DescribeModel(telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "gbdt";
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  if (model_ != nullptr) {
    card->parameter_count = static_cast<int64_t>(model_->NumNodes());
    card->epochs = static_cast<int64_t>(model_->num_trees());
    card->extra.emplace_back("trees",
                             static_cast<double>(model_->num_trees()));
  }
}

}  // namespace ce
}  // namespace lce
