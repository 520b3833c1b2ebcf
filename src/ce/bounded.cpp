#include "src/ce/bounded.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

BoundedEstimator::BoundedEstimator(std::unique_ptr<Estimator> inner,
                                   std::unique_ptr<Estimator> reference,
                                   double envelope)
    : inner_(std::move(inner)),
      reference_(std::move(reference)),
      envelope_(envelope) {
  LCE_CHECK(inner_ != nullptr && reference_ != nullptr);
  LCE_CHECK_MSG(envelope_ >= 1.0, "envelope must be >= 1");
}

std::string BoundedEstimator::Name() const {
  return inner_->Name() + "+Bound";
}

Status BoundedEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  Status s = inner_->Build(db, training);
  if (!s.ok()) return s;
  return reference_->Build(db, training);
}

double BoundedEstimator::EstimateImpl(const query::Query& q,
                                      ExplainRecord*) const {
  // The wrapped estimators' entry points open their own stage timers; the
  // innermost-timer stack attributes their stages to themselves, and this
  // estimator's timer keeps the clamp arithmetic under its name.
  telemetry::StageTimer::Mark("traverse");
  double inner = inner_->EstimateCardinality(q);
  double reference = reference_->EstimateCardinality(q);
  telemetry::StageTimer::Mark("postprocess");
  double lo = std::max(1.0, reference / envelope_);
  double hi = reference * envelope_;
  return std::clamp(inner, lo, hi);
}

Status BoundedEstimator::UpdateWithQueries(
    const std::vector<query::LabeledQuery>& queries) {
  Status s = inner_->UpdateWithQueries(queries);
  // The reference may be statistics-only; its refusal is fine.
  reference_->UpdateWithQueries(queries);
  return s;
}

Status BoundedEstimator::UpdateWithData(const storage::Database& db) {
  Status inner = inner_->UpdateWithData(db);
  Status reference = reference_->UpdateWithData(db);
  // Success if either side refreshed (mirrors deployment: ANALYZE runs even
  // when the model itself is not retrained).
  return reference.ok() ? Status::OK() : inner;
}

uint64_t BoundedEstimator::SizeBytes() const {
  return inner_->SizeBytes() + reference_->SizeBytes();
}

}  // namespace ce
}  // namespace lce
