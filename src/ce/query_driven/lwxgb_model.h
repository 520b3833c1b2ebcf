// LW-XGB: gradient-boosted trees over the flat query encoding (Dutt et al.'s
// lightweight tree-ensemble estimator).

#ifndef LCE_CE_QUERY_DRIVEN_LWXGB_MODEL_H_
#define LCE_CE_QUERY_DRIVEN_LWXGB_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/estimator.h"
#include "src/gbdt/gbdt.h"
#include "src/query/encoder.h"

namespace lce {
namespace ce {

class LwXgbEstimator : public Estimator {
 public:
  struct Options {
    gbdt::GradientBoosting::Options gbdt;
    /// Boosting rounds added per incremental update.
    int update_trees = 16;
    uint64_t seed = 42;
    query::FlatVariant flat_variant = query::FlatVariant::kFull;
  };

  LwXgbEstimator() : LwXgbEstimator(Options{}) {}
  explicit LwXgbEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "LW-XGB"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  /// Batched inference: encodes all queries, then one level-synchronous
  /// PredictBatch() over the SoA forest. Bit-identical to the per-query path.
  std::vector<double> EstimateBatch(
      const std::vector<query::Query>& queries) override;
  bool HasBatchEstimate() const override { return true; }
  Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) override;
  uint64_t SizeBytes() const override;
  void DescribeModel(telemetry::ModelCard* card) const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  Options options_;
  std::unique_ptr<query::QueryEncoder> encoder_;
  std::unique_ptr<gbdt::GradientBoosting> model_;
  int64_t train_examples_ = -1;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_QUERY_DRIVEN_LWXGB_MODEL_H_
