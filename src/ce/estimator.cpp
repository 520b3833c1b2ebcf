#include "src/ce/estimator.h"

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

double Estimator::EstimateCardinality(const query::Query& q) {
  telemetry::StageTimer stages([this] { return Name(); });
  return EstimateImpl(q, nullptr);
}

double Estimator::EstimateWithDiagnostics(const query::Query& q,
                                          ExplainRecord* rec) {
  rec->estimator = Name();
  FillQueryShape(q, rec);
  telemetry::StageTimer stages([this] { return Name(); });
  rec->estimate = EstimateImpl(q, rec);
  return rec->estimate;
}

double Estimator::EstimateImpl(const query::Query&, ExplainRecord*) const {
  LCE_CHECK_MSG(false, Name() << " implements no EstimateImpl");
  return 0;
}

}  // namespace ce
}  // namespace lce
