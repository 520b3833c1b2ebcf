// The uniform cardinality-estimator interface of the study.
//
// Every estimator — traditional, query-driven, data-driven — implements this
// API so the evaluation harness, the optimizer, and the update experiments can
// treat the whole zoo interchangeably. An estimator implements one estimate,
// EstimateImpl(q, rec) const; the two public entry points, EstimateCardinality
// and EstimateWithDiagnostics, are the base's (estimator.cpp). They own the
// per-query StageTimer and the record's name, shape and estimate, so an
// estimator only marks its stages (StageTimer::Mark) and, when `rec` is
// given, reads its diagnostics into it.
//
// Reentrancy contract: after Build() (or an update) returns, estimation
// writes no member — EstimateImpl is `const`, so the compiler checks it.
// Every Estimate* call is a pure function of (build, query): the same query
// gets the same bits on repeat, in any order, and from any number of
// concurrent threads. Sampling estimators seed a local Rng per query from
// parallel::ChunkSeed(seed, query::Fingerprint(q)) instead of advancing a
// member stream. The evaluation harness scores queries in parallel and the
// estimation service runs requests concurrently on this contract;
// tests/zoo_property_test.cpp checks it for the whole zoo. Build and update
// calls must not run concurrently with estimation on the same instance. The
// two entry points are virtual and not `const` only because the benchmark's
// timing decorator (lcebench/) overrides these signatures.

#ifndef LCE_CE_ESTIMATOR_H_
#define LCE_CE_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/explain.h"
#include "src/query/query.h"
#include "src/storage/database.h"
#include "src/util/status.h"
#include "src/util/telemetry/model_card.h"

namespace lce {
namespace ce {

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Human-readable name used in every result table ("FCN", "MSCN", ...).
  virtual std::string Name() const = 0;

  /// Builds the estimator. Query-driven estimators consume `training`
  /// (queries labeled with true cardinalities); data-driven and traditional
  /// estimators read the database and may ignore the workload.
  virtual Status Build(const storage::Database& db,
                       const std::vector<query::LabeledQuery>& training) = 0;

  /// Estimated COUNT(*) of `q`. Always >= 1 (the study's q-error convention
  /// clamps both sides at one tuple). Times EstimateImpl(q, nullptr).
  virtual double EstimateCardinality(const query::Query& q);

  /// Estimates for many queries at once. Semantically a loop over
  /// EstimateCardinality() — the default is exactly that — but estimators
  /// with a vectorized inference path (e.g. LW-XGB's batched GBDT traversal)
  /// override it to amortize per-call overhead. Overrides must return
  /// bit-identical values to the per-query calls in the same order.
  virtual std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) {
    std::vector<double> out;
    out.reserve(queries.size());
    for (const query::Query& q : queries) out.push_back(EstimateCardinality(q));
    return out;
  }

  /// True when EstimateBatch() is a genuinely vectorized override rather
  /// than the default loop. Batch-aware callers (accuracy evaluation) use
  /// this to pick the batched path over per-query parallelism.
  virtual bool HasBatchEstimate() const { return false; }

  /// EstimateCardinality() plus diagnostics: fills `rec` with the estimator
  /// name, query shape and estimate, and EstimateImpl(q, rec) adds the
  /// per-predicate selectivity breakdown, fallback events, and
  /// model-internal counters behind the number. The returned estimate is
  /// bit-identical to EstimateCardinality() on the same build: the record
  /// only *reads* already-computed values. `rec` must be non-null.
  virtual double EstimateWithDiagnostics(const query::Query& q,
                                         ExplainRecord* rec);

  /// Incorporates newly observed labeled queries (incremental training).
  /// Default: unsupported (traditional/data-driven estimators).
  virtual Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) {
    (void)queries;
    return Status::Unimplemented(Name() + " does not update from queries");
  }

  /// Refreshes the estimator after the underlying data changed (appends).
  /// Default: unsupported; the harness then measures the stale model.
  virtual Status UpdateWithData(const storage::Database& db) {
    (void)db;
    return Status::Unimplemented(Name() + " does not update from data");
  }

  /// Always true under the reentrancy contract above; nothing in the
  /// library calls it. It stays only because the benchmark's timing
  /// decorator (lcebench/timing_estimator.h) overrides it.
  virtual bool ThreadSafeEstimate() const { return true; }

  /// Approximate size of the built estimator in bytes (statistics, samples,
  /// or model parameters) — the footprint column of experiment R2.
  virtual uint64_t SizeBytes() const = 0;

  /// Memory footprint of the built model in bytes. Defaults to SizeBytes();
  /// estimators whose SizeBytes() excludes auxiliary structures (encoders,
  /// buffers) override this to account for everything the model keeps alive.
  virtual uint64_t FootprintBytes() const { return SizeBytes(); }

  /// Fills a model card describing the trained estimator: family,
  /// parameter count, footprint, training-set size, epochs, final loss.
  /// The base fills name/footprint; trainable families override to add what
  /// they track. `card` must be non-null; the bench harness supplies
  /// dataset, build time, and accuracy extras afterwards.
  virtual void DescribeModel(telemetry::ModelCard* card) const {
    card->model = Name();
    card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  }

 protected:
  /// The estimate of `q`, >= 1: the one method an estimator implements.
  /// `rec` is null on the plain path; when given, the estimator appends its
  /// predicate explanations, fallbacks and counters without changing the
  /// arithmetic. The base body fails a check; it is not pure only so the
  /// benchmark's timing decorator, which forwards both entry points, need
  /// not implement it.
  virtual double EstimateImpl(const query::Query& q, ExplainRecord* rec) const;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_ESTIMATOR_H_
