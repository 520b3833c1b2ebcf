// Per-query explain records: the structured "why" behind every estimate.
//
// An ExplainRecord is filled by Estimator::EstimateWithDiagnostics: the
// base writes the estimator name, query shape and estimate, and the
// estimator's EstimateImpl adds, per query, the per-predicate selectivity
// breakdown, every fallback it silently took (uniform assumptions,
// unmodeled columns), and model-internal counters (tree depths, SPN node
// visits, sampling budgets). MakeForensicRecord copies a query and its
// diagnostics into the flight recorder's fixed-size record, the one
// per-query record the ring, the postmortem bundles and the LCE_QUERY_LOG
// file share; labels (truth, q-error, latency) live there.
//
// Collecting diagnostics never changes the estimate: the plain and the
// diagnosed call run the same EstimateImpl, which only *reads* values
// already computed into the record, so estimates are bit-identical with and
// without a record.

#ifndef LCE_CE_EXPLAIN_H_
#define LCE_CE_EXPLAIN_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/query/query.h"
#include "src/storage/types.h"

namespace lce {
namespace telemetry {
struct ForensicRecord;
}  // namespace telemetry

namespace ce {

/// One predicate's contribution to the estimate. `selectivity` is the
/// estimator's attributed selectivity for this predicate alone, or -1 when
/// the estimator models predicates jointly and cannot separate them (grid
/// histograms, SPNs); `source` names the statistic that produced it.
struct PredicateExplain {
  int table = 0;
  int column = 0;
  storage::Value lo = 0;
  storage::Value hi = 0;
  double selectivity = -1.0;
  std::string source;
};

/// A fallback the estimator took silently on the normal path: uniformity
/// assumption, unmodeled column, degenerate statistic.
struct FallbackEvent {
  std::string site;    // stable identifier, e.g. "spn.key_column_uniform"
  std::string detail;  // human-readable context, e.g. "table=0 column=2"
};

struct ExplainRecord {
  std::string estimator;  // Estimator::Name()
  double estimate = 0;
  int num_tables = 0;
  int num_joins = 0;
  int num_predicates = 0;
  std::vector<PredicateExplain> predicates;
  std::vector<FallbackEvent> fallbacks;
  /// Model-internal counters: tree path depth, SPN node visits, sampling
  /// budget, encoding norms, ... Names follow area.metric.
  std::vector<std::pair<std::string, double>> counters;

  void AddCounter(std::string name, double value) {
    counters.emplace_back(std::move(name), value);
  }
  void AddFallback(std::string site, std::string detail) {
    fallbacks.push_back({std::move(site), std::move(detail)});
  }
};

/// Fills the query-shape fields (table/join/predicate counts) from `q`.
void FillQueryShape(const query::Query& q, ExplainRecord* rec);

/// Builds the flight-recorder record of one estimate of `q`: the query IR
/// (the first kFrMaxTables tables and kFrMaxPredicates predicates, full
/// counts), query_hash = query::Fingerprint(q), the current phase scope,
/// and — when `diag` is given — its per-predicate selectivities and first
/// fallback. Reads only; allocates nothing. Negative truth, qerror and
/// latency mean unknown. Callers fill stages (FillStagesFromThread) and
/// append (telemetry::FlightRecorder::Append).
telemetry::ForensicRecord MakeForensicRecord(std::string_view estimator,
                                             const query::Query& q,
                                             double estimate, double truth,
                                             double qerror, double latency_us,
                                             const ExplainRecord* diag);

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_EXPLAIN_H_
