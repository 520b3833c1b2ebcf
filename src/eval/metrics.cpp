#include "src/eval/metrics.h"

#include <algorithm>

#include "src/ce/explain.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace lce {
namespace eval {

double QError(double estimate, double truth) {
  double e = std::max(1.0, estimate);
  double t = std::max(1.0, truth);
  return std::max(e / t, t / e);
}

namespace {

// Estimates `lq` through EstimateWithDiagnostics, timed, and appends the
// full-fidelity record: per-predicate selectivities, first fallback and the
// stage micros of this call. Diagnostics share the plain path's arithmetic,
// so the estimate is bit-identical to EstimateCardinality's. Returns the
// call's latency in microseconds.
double RecordDiagnosedEstimate(ce::Estimator* estimator,
                               const std::string& name,
                               const query::LabeledQuery& lq) {
  ce::ExplainRecord diag;
  Timer timer;
  double est = estimator->EstimateWithDiagnostics(lq.q, &diag);
  double latency_us = timer.ElapsedMicros();
  telemetry::ForensicRecord fr = ce::MakeForensicRecord(
      name, lq.q, est, lq.cardinality, QError(est, lq.cardinality),
      latency_us, &diag);
  telemetry::FillStagesFromThread(&fr);
  telemetry::FlightRecorder::Global().Append(fr);
  return latency_us;
}

}  // namespace

AccuracyReport EvaluateAccuracy(ce::Estimator* estimator,
                                const std::vector<query::LabeledQuery>& test) {
  telemetry::ScopedPhase phase("eval/accuracy");
  AccuracyReport report;
  report.qerrors.resize(test.size());
  // Queries score independently. A vectorized EstimateBatch() override wins
  // over per-query parallelism (it amortizes encoding and traverses the
  // model batched, parallelizing internally); otherwise queries are scored
  // in parallel chunks (per-index writes), which the reentrancy contract
  // (estimator.h) allows for every estimator. Both paths are bit-identical
  // to the per-query calls, so the q-error vector is the same on every path
  // and at every thread count.
  std::vector<double> ests(test.size());
  if (estimator->HasBatchEstimate()) {
    std::vector<query::Query> queries;
    queries.reserve(test.size());
    for (const query::LabeledQuery& lq : test) queries.push_back(lq.q);
    ests = estimator->EstimateBatch(queries);
    LCE_CHECK(ests.size() == test.size());
    for (size_t i = 0; i < test.size(); ++i) {
      report.qerrors[i] = QError(ests[i], test[i].cardinality);
    }
  } else {
    parallel::ParallelFor(
        0, static_cast<int64_t>(test.size()), /*grain=*/8,
        [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) {
            const query::LabeledQuery& lq = test[static_cast<size_t>(i)];
            ests[static_cast<size_t>(i)] = estimator->EstimateCardinality(lq.q);
            report.qerrors[static_cast<size_t>(i)] =
                QError(ests[static_cast<size_t>(i)], lq.cardinality);
          }
        });
  }
  // Flight-recorder feed: one low-fidelity context record per scored query
  // (kept trigger-ineligible), and — for queries at or above the q-error
  // bundle trigger — an enriched full-fidelity record from a diagnostics
  // re-estimate (bit-identical by contract), so the bundle's offending
  // record always carries per-predicate selectivities and stage micros.
  if (telemetry::QueryRecordsWanted()) {
    telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::Global();
    const std::string name = estimator->Name();
    const double trigger = telemetry::QerrTriggerThreshold();
    for (size_t i = 0; i < test.size(); ++i) {
      const query::LabeledQuery& lq = test[i];
      if (trigger > 0 && report.qerrors[i] >= trigger) {
        RecordDiagnosedEstimate(estimator, name, lq);
      } else {
        recorder.Append(
            ce::MakeForensicRecord(name, lq.q, ests[i], lq.cardinality,
                                   report.qerrors[i], /*latency_us=*/-1,
                                   /*diag=*/nullptr),
            /*trigger_eligible=*/false);
      }
    }
  }
  // Drift wiring (LCE_DRIFT_WINDOW): feed q-errors into the estimator's
  // global monitor in index order, after estimation — deterministic at every
  // thread count and invisible to the estimator, so estimates stay
  // bit-identical with the monitor on or off.
  if (telemetry::DriftEnabled()) {
    telemetry::DriftMonitor& monitor =
        telemetry::GlobalDriftMonitor(estimator->Name());
    for (double qe : report.qerrors) monitor.Observe(qe);
  }
  report.summary = Summarize(report.qerrors);
  return report;
}

LatencyReport MeasureEstimateLatency(
    ce::Estimator* estimator, const std::vector<query::LabeledQuery>& test,
    size_t cap) {
  telemetry::ScopedPhase phase("eval/latency");
  static telemetry::Histogram& latency_hist =
      telemetry::MetricsRegistry::Global().histogram("eval.estimate_latency_us");
  LatencyReport report;
  report.total = test.size();
  report.measured = std::min(cap, test.size());
  report.capped = report.measured < report.total;
  if (report.measured == 0) return report;
  std::vector<double> samples(report.measured);
  // While the flight recorder or the query log is on, every timed query is
  // also recorded, with its diagnostics, and the diagnosed call is the one
  // timed; the estimates stay bit-identical.
  const bool record = telemetry::QueryRecordsWanted();
  const std::string name = record ? estimator->Name() : std::string();
  Timer timer;
  for (size_t i = 0; i < report.measured; ++i) {
    if (record) {
      samples[i] = RecordDiagnosedEstimate(estimator, name, test[i]);
    } else {
      timer.Reset();
      estimator->EstimateCardinality(test[i].q);
      samples[i] = timer.ElapsedMicros();
    }
    latency_hist.Observe(samples[i]);
  }
  report.micros = Summarize(samples);
  return report;
}

}  // namespace eval
}  // namespace lce
