// A forwarding ce::Estimator that times every EstimateBatch() call — one
// serving flush — from outside the model.
//
// The traced serve run registers this decorator in place of the model, so
// every virtual forwards to the wrapped estimator unchanged: the service
// takes the same path (batch vs loop, thread-safety, diagnostics) and gets
// bit-identical answers, and only the clock reads around EstimateBatch are
// added.

#ifndef LCEBENCH_TIMING_ESTIMATOR_H_
#define LCEBENCH_TIMING_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "lcebench/spans.h"
#include "src/ce/estimator.h"

namespace lcebench {

/// One timed EstimateBatch() call.
struct Flush {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int rows = 0;
};

/// Flushes of every decorator sharing the log, in completion order.
class FlushLog {
 public:
  void Add(const Flush& f) {
    std::lock_guard<std::mutex> lock(mu_);
    flushes_.push_back(f);
  }
  std::vector<Flush> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flushes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Flush> flushes_;  // guarded by mu_
};

class TimingEstimator : public lce::ce::Estimator {
 public:
  /// `inner` is the built model; `log` must outlive this decorator.
  TimingEstimator(std::shared_ptr<lce::ce::Estimator> inner, FlushLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string Name() const override { return inner_->Name(); }
  lce::Status Build(
      const lce::storage::Database& db,
      const std::vector<lce::query::LabeledQuery>& training) override {
    return inner_->Build(db, training);
  }
  double EstimateCardinality(const lce::query::Query& q) override {
    return inner_->EstimateCardinality(q);
  }
  std::vector<double> EstimateBatch(
      const std::vector<lce::query::Query>& queries) override {
    Flush f;
    f.rows = static_cast<int>(queries.size());
    f.start_ns = NowNs();
    std::vector<double> out = inner_->EstimateBatch(queries);
    f.end_ns = NowNs();
    log_->Add(f);
    return out;
  }
  bool HasBatchEstimate() const override { return inner_->HasBatchEstimate(); }
  double EstimateWithDiagnostics(const lce::query::Query& q,
                                 lce::ce::ExplainRecord* rec) override {
    return inner_->EstimateWithDiagnostics(q, rec);
  }
  lce::Status UpdateWithQueries(
      const std::vector<lce::query::LabeledQuery>& queries) override {
    return inner_->UpdateWithQueries(queries);
  }
  lce::Status UpdateWithData(const lce::storage::Database& db) override {
    return inner_->UpdateWithData(db);
  }
  bool ThreadSafeEstimate() const override {
    return inner_->ThreadSafeEstimate();
  }
  uint64_t SizeBytes() const override { return inner_->SizeBytes(); }
  uint64_t FootprintBytes() const override { return inner_->FootprintBytes(); }
  void DescribeModel(lce::telemetry::ModelCard* card) const override {
    inner_->DescribeModel(card);
  }

 private:
  std::shared_ptr<lce::ce::Estimator> inner_;
  FlushLog* log_;
};

}  // namespace lcebench

#endif  // LCEBENCH_TIMING_ESTIMATOR_H_
