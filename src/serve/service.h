// Estimation-as-a-service: a long-running, in-process front end over the
// estimator zoo.
//
// The service accepts SQL strings (parsed and validated by query::ParseSql,
// which is hardened against hostile input), routes them to a named model
// from the ModelRegistry, and answers with the estimate plus the serving
// context (model version, batch size, queue wait). Each model gets its own
// MicroBatcher, so concurrent clients of the same model are coalesced into
// one vectorized EstimateBatch() flush while different models never wait on
// each other.
//
// Estimator execution is serialized per model with an exec mutex: neural
// forward passes reuse activation caches and are not thread-safe
// (Estimator::ThreadSafeEstimate), and the flush already fans out across
// the thread pool inside the kernels — cross-batch concurrency would only
// thrash it. Model versions resolve once per flush, so a Register() swap
// lands between batches, never inside one.

#ifndef LCE_SERVE_SERVICE_H_
#define LCE_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/ce/estimator.h"
#include "src/ce/explain.h"
#include "src/query/parser.h"
#include "src/serve/batcher.h"
#include "src/serve/model_registry.h"
#include "src/storage/database.h"
#include "src/util/status.h"

namespace lce {
namespace telemetry {
class Counter;
}  // namespace telemetry

namespace serve {

/// One answered request.
struct EstimateResponse {
  double estimate = 0;
  std::string model;
  uint64_t model_version = 0;
  int batch_size = 1;        // size of the flush that answered this request
  double queue_wait_us = 0;  // time spent coalescing before the flush
};

/// EstimateResponse plus the structured "why" (per-predicate selectivities,
/// fallbacks, model counters). Explain requests bypass the batcher: they
/// run EstimateWithDiagnostics under the model's exec mutex.
struct ExplainResponse {
  EstimateResponse response;
  ce::ExplainRecord record;
};

class EstimationService {
 public:
  /// `db` provides the schema for SQL parsing and must outlive the service.
  /// Batching knobs default to the LCE_SERVE_* environment.
  explicit EstimationService(const storage::Database* db)
      : EstimationService(db, BatcherOptions::FromEnv()) {}
  EstimationService(const storage::Database* db, const BatcherOptions& options);

  /// Publishes `estimator` (already built) as model `name`; re-registering
  /// swaps the model atomically between flushes. Returns the new version.
  uint64_t RegisterModel(const std::string& name,
                         std::shared_ptr<ce::Estimator> estimator);

  /// Sorted (name, version) pairs of every registered model.
  std::vector<std::pair<std::string, uint64_t>> ListModels() const;

  /// Parses `sql` against the service database and estimates it with
  /// `model`. Malformed SQL and unknown models return a Status — never a
  /// crash — making this safe as the untrusted-input entry point. Blocks
  /// until the micro-batcher flushes the request.
  Result<EstimateResponse> EstimateSql(const std::string& model,
                                       const std::string& sql);

  /// EstimateSql for an already-validated query (no parse step).
  Result<EstimateResponse> Estimate(const std::string& model,
                                    const query::Query& q);

  /// Estimate plus diagnostics. Bit-identical to Estimate() on the same
  /// model state but unbatched, so reserve it for debugging traffic.
  Result<ExplainResponse> ExplainSql(const std::string& model,
                                     const std::string& sql);

 private:
  // Per-model runtime state. Stable address once created (unique_ptr in the
  // map); the batcher's exec callback captures the slot pointer.
  struct ModelState {
    explicit ModelState(const std::string& model_name);

    const std::string name;
    telemetry::Counter& requests;  // serve.<name>.requests
    telemetry::Counter& explains;  // serve.<name>.explains
    std::mutex exec_mu;  // serializes estimator execution for this model
    std::unique_ptr<MicroBatcher> batcher;
  };

  /// Looks up (never creates) the runtime state for `model`.
  ModelState* FindState(const std::string& model) const;

  const storage::Database* const db_;
  const BatcherOptions options_;
  ModelRegistry registry_;
  mutable std::mutex mu_;  // guards the state map shape
  std::map<std::string, std::unique_ptr<ModelState>> states_;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_SERVICE_H_
