#include "src/ce/explain.h"

#include <algorithm>

#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace ce {

void FillQueryShape(const query::Query& q, ExplainRecord* rec) {
  rec->num_tables = static_cast<int>(q.tables.size());
  rec->num_joins = q.num_joins();
  rec->num_predicates = static_cast<int>(q.predicates.size());
}

telemetry::ForensicRecord MakeForensicRecord(std::string_view estimator,
                                             const query::Query& q,
                                             double estimate, double truth,
                                             double qerror, double latency_us,
                                             const ExplainRecord* diag) {
  telemetry::ForensicRecord fr;
  telemetry::SetFrName(fr.estimator, sizeof(fr.estimator), estimator);
  telemetry::SetFrName(fr.scope, sizeof(fr.scope),
                       telemetry::PhaseScope::Current());
  fr.query_hash = query::Fingerprint(q);
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
  // Diagnostics list predicates in query order; attribute by index.
  const bool attributed =
      diag != nullptr && diag->predicates.size() == q.predicates.size();
  int np = std::min<int>(telemetry::kFrMaxPredicates,
                         static_cast<int>(q.predicates.size()));
  for (int i = 0; i < np; ++i) {
    const query::Predicate& p = q.predicates[static_cast<size_t>(i)];
    fr.preds[i].table = static_cast<int16_t>(p.col.table);
    fr.preds[i].column = static_cast<int16_t>(p.col.column);
    fr.preds[i].lo = p.lo;
    fr.preds[i].hi = p.hi;
    if (attributed) {
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

}  // namespace ce
}  // namespace lce
