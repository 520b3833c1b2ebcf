#include "src/eval/metrics.h"

#include <algorithm>

#include "src/ce/explain.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/query_log.h"
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

// Copies query IR (and, when available, the diagnostics' per-predicate
// selectivity attribution and fallbacks) into a fixed-size forensic record
// for the flight recorder. Pure reads; never touches estimator state.
telemetry::ForensicRecord MakeForensicRecord(const std::string& estimator,
                                             const query::Query& q,
                                             double estimate, double truth,
                                             double qerror, double latency_us,
                                             const ce::ExplainRecord* diag) {
  telemetry::ForensicRecord fr;
  telemetry::SetFrName(fr.estimator, sizeof(fr.estimator), estimator);
  telemetry::SetFrName(fr.scope, sizeof(fr.scope),
                       telemetry::PhaseScope::Current());
  fr.estimate = estimate;
  fr.truth = truth;
  fr.qerror = qerror;
  fr.latency_us = latency_us;
  fr.num_tables = static_cast<uint16_t>(q.tables.size());
  fr.num_joins = static_cast<uint16_t>(q.num_joins());
  fr.num_predicates = static_cast<uint16_t>(q.predicates.size());
  int nt = std::min<int>(telemetry::kFrMaxTables,
                         static_cast<int>(q.tables.size()));
  for (int i = 0; i < nt; ++i) {
    fr.tables[i] = static_cast<int16_t>(q.tables[static_cast<size_t>(i)]);
  }
  fr.tables_recorded = static_cast<uint8_t>(nt);
  int np = std::min<int>(telemetry::kFrMaxPredicates,
                         static_cast<int>(q.predicates.size()));
  for (int i = 0; i < np; ++i) {
    const query::Predicate& p = q.predicates[static_cast<size_t>(i)];
    fr.preds[i].table = static_cast<int16_t>(p.col.table);
    fr.preds[i].column = static_cast<int16_t>(p.col.column);
    fr.preds[i].lo = p.lo;
    fr.preds[i].hi = p.hi;
    // Diagnostics list predicates in query order; attribute by index.
    if (diag != nullptr &&
        diag->predicates.size() == q.predicates.size()) {
      fr.preds[i].selectivity =
          diag->predicates[static_cast<size_t>(i)].selectivity;
    }
  }
  fr.preds_recorded = static_cast<uint8_t>(np);
  if (diag != nullptr) {
    fr.num_fallbacks = static_cast<uint16_t>(diag->fallbacks.size());
    if (!diag->fallbacks.empty()) {
      telemetry::SetFrName(fr.fallback_site, sizeof(fr.fallback_site),
                           diag->fallbacks.front().site);
    }
  }
  return fr;
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
  if (telemetry::FlightRecorderEnabled()) {
    telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::Global();
    const double trigger = telemetry::QerrTriggerThreshold();
    for (size_t i = 0; i < test.size(); ++i) {
      const query::LabeledQuery& lq = test[i];
      if (trigger > 0 && report.qerrors[i] >= trigger) {
        ce::ExplainRecord diag;
        Timer timer;
        double est = estimator->EstimateWithDiagnostics(lq.q, &diag);
        double latency_us = timer.ElapsedMicros();
        telemetry::ForensicRecord fr =
            MakeForensicRecord(estimator->Name(), lq.q, est, lq.cardinality,
                               QError(est, lq.cardinality), latency_us, &diag);
        telemetry::FillStagesFromThread(&fr);
        recorder.Append(fr, /*trigger_eligible=*/true);
      } else {
        recorder.Append(
            MakeForensicRecord(estimator->Name(), lq.q, ests[i],
                               lq.cardinality, report.qerrors[i],
                               /*latency_us=*/-1, nullptr),
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
  Timer timer;
  // With LCE_QUERY_LOG set, every timed query also streams an explain record
  // (per-predicate breakdown, fallbacks, model counters, latency, q-error).
  // Diagnostics share the estimate's arithmetic, so the estimates themselves
  // are bit-identical to the plain path.
  const bool log = telemetry::QueryLogEnabled();
  const bool fr_on = telemetry::FlightRecorderEnabled();
  for (size_t i = 0; i < report.measured; ++i) {
    if (log || fr_on) {
      ce::ExplainRecord rec;
      timer.Reset();
      double est = estimator->EstimateWithDiagnostics(test[i].q, &rec);
      samples[i] = timer.ElapsedMicros();
      rec.latency_us = samples[i];
      rec.truth = test[i].cardinality;
      rec.qerror = QError(est, test[i].cardinality);
      if (log) telemetry::QueryLog::Global().Append(rec.ToJsonLine());
      if (fr_on) {
        telemetry::ForensicRecord fr = MakeForensicRecord(
            estimator->Name(), test[i].q, est, rec.truth, rec.qerror,
            samples[i], &rec);
        telemetry::FillStagesFromThread(&fr);
        telemetry::FlightRecorder::Global().Append(fr);
      }
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
