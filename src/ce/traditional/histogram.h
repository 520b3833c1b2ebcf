// PostgreSQL-style statistics: most-common-value lists plus equi-depth
// histograms per column, combined under attribute independence, with the
// System-R distinct-count formula for equi-joins.

#ifndef LCE_CE_TRADITIONAL_HISTOGRAM_H_
#define LCE_CE_TRADITIONAL_HISTOGRAM_H_

#include <unordered_map>
#include <vector>

#include "src/ce/estimator.h"
#include "src/storage/types.h"

namespace lce {
namespace ce {

/// Most-common-value list: the top-k values and their frequencies (fractions
/// of the table). Values covered here are excluded from the histogram.
struct McvList {
  std::vector<storage::Value> values;
  std::vector<double> fractions;  // parallel to values
  double total_fraction = 0;

  /// Fraction of rows whose value is an MCV inside [lo, hi].
  double FractionInRange(storage::Value lo, storage::Value hi) const;
};

/// Equi-depth histogram over the non-MCV values of one column.
class EquiDepthHistogram {
 public:
  /// Builds `num_buckets` equal-mass buckets from (unsorted) values.
  void Build(std::vector<storage::Value> values, int num_buckets);

  /// Fraction of the histogram's own mass falling in [lo, hi], assuming
  /// uniformity inside each bucket.
  double FractionInRange(storage::Value lo, storage::Value hi) const;

  bool empty() const { return counts_.empty(); }
  size_t num_buckets() const { return counts_.size(); }
  uint64_t SizeBytes() const;

 private:
  // bounds_ has counts_.size() + 1 entries; bucket i covers
  // [bounds_[i], bounds_[i+1]] (last bucket inclusive of its upper bound).
  std::vector<storage::Value> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Statistics for one column: MCVs + histogram + distinct count.
struct ColumnStatistics {
  McvList mcv;
  EquiDepthHistogram histogram;
  uint64_t distinct = 1;
  double null_free_rows = 0;  // rows contributing to the stats

  /// Selectivity of `lo <= col <= hi` against this column.
  double Selectivity(storage::Value lo, storage::Value hi) const;
};

/// The classic estimator: per-attribute stats, independence across
/// predicates, distinct-count join formula. Supports UpdateWithData
/// (re-ANALYZE) but not query feedback.
class HistogramEstimator : public Estimator {
 public:
  struct Options {
    int num_buckets = 64;
    int num_mcvs = 24;
  };

  HistogramEstimator() : HistogramEstimator(Options{}) {}
  explicit HistogramEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "Histogram"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  Options options_;
  const storage::DatabaseSchema* schema_ = nullptr;
  std::vector<std::vector<ColumnStatistics>> stats_;  // [table][column]
  std::vector<double> table_rows_;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_TRADITIONAL_HISTOGRAM_H_
