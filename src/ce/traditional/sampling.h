// Uniform-sampling estimator: executes the query on per-table uniform samples
// and scales the count by the inverse sampling fractions. Accurate for
// selective single-table predicates, high-variance on joins — the classic
// failure mode the study contrasts learned models against.

#ifndef LCE_CE_TRADITIONAL_SAMPLING_H_
#define LCE_CE_TRADITIONAL_SAMPLING_H_

#include <memory>

#include "src/ce/estimator.h"
#include "src/exec/executor.h"

namespace lce {
namespace ce {

class SamplingEstimator : public Estimator {
 public:
  struct Options {
    uint64_t rows_per_table = 2000;
    uint64_t seed = 7;
  };

  SamplingEstimator() : SamplingEstimator(Options{}) {}
  explicit SamplingEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "Sampling"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  Options options_;
  std::unique_ptr<storage::Database> sample_db_;
  std::unique_ptr<exec::Executor> executor_;
  std::vector<double> scale_;  // per table: full rows / sampled rows
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_TRADITIONAL_SAMPLING_H_
