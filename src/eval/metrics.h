// Accuracy metrics and estimator evaluation.

#ifndef LCE_EVAL_METRICS_H_
#define LCE_EVAL_METRICS_H_

#include <vector>

#include "src/ce/estimator.h"
#include "src/query/query.h"
#include "src/util/stats.h"

namespace lce {
namespace eval {

/// Q-error (Moerkotte et al.): max(est/true, true/est), both sides clamped at
/// one tuple. Always >= 1.
double QError(double estimate, double truth);

struct AccuracyReport {
  std::vector<double> qerrors;  // per test query
  SampleSummary summary;        // of the q-errors
};

/// Estimates every test query and summarizes the q-errors.
AccuracyReport EvaluateAccuracy(ce::Estimator* estimator,
                                const std::vector<query::LabeledQuery>& test);

/// Per-query inference latency distribution. Latency sampling stops at a cap
/// (queries are i.i.d. draws; 200 is plenty for a stable mean) — the report
/// says so explicitly instead of silently averaging over an invisible subset.
struct LatencyReport {
  SampleSummary micros;  // per-query latency distribution (mean, p50/p95/p99)
  size_t measured = 0;   // queries actually timed
  size_t total = 0;      // queries available
  bool capped = false;   // measured < total
};

/// Latency sample cap when the caller picks none.
inline constexpr size_t kLatencySampleCap = 200;

/// Times `estimator` on the first min(cap, test.size()) test queries, one
/// clock read per query, and feeds each sample into the
/// eval.estimate_latency_us histogram (when LCE_METRICS is on).
LatencyReport MeasureEstimateLatency(
    ce::Estimator* estimator, const std::vector<query::LabeledQuery>& test,
    size_t cap = kLatencySampleCap);

}  // namespace eval
}  // namespace lce

#endif  // LCE_EVAL_METRICS_H_
