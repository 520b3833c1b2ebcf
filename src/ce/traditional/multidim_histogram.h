// Multi-dimensional equi-width histogram estimator.
//
// Captures intra-table correlation that per-attribute histograms miss, at an
// exponential space cost in the number of attributes — exactly the trade-off
// the study discusses. Joins still use the distinct-count formula.

#ifndef LCE_CE_TRADITIONAL_MULTIDIM_HISTOGRAM_H_
#define LCE_CE_TRADITIONAL_MULTIDIM_HISTOGRAM_H_

#include <vector>

#include "src/ce/estimator.h"
#include "src/storage/types.h"

namespace lce {
namespace ce {

/// A d-dimensional grid over a table's non-key columns. The per-dimension bin
/// count shrinks with d so the grid stays within `max_cells`.
class GridHistogram {
 public:
  void Build(const storage::Table& table, const std::vector<int>& columns,
             uint64_t max_cells);

  /// Selectivity of the conjunction of ranges, one per grid dimension
  /// ([lo, hi] pairs aligned with the build columns; unconstrained dimensions
  /// pass the full column range). Partial bin overlap assumes uniformity.
  double Selectivity(const std::vector<std::pair<storage::Value,
                                                 storage::Value>>& ranges) const;

  const std::vector<int>& columns() const { return columns_; }
  uint64_t SizeBytes() const {
    return cells_.size() * sizeof(double) + columns_.size() * 32;
  }

 private:
  std::vector<int> columns_;            // table-local column indexes
  std::vector<int> bins_;               // bins per dimension
  std::vector<storage::Value> min_;     // per dimension
  std::vector<storage::Value> max_;     // per dimension
  std::vector<double> cells_;           // row-major counts
  double total_ = 0;
};

class MultiDimHistogramEstimator : public Estimator {
 public:
  struct Options {
    uint64_t max_cells = 65536;
    /// At most this many columns per grid; wider tables get their first
    /// `max_dims` non-key columns gridded and the rest treated independently.
    int max_dims = 4;
  };

  MultiDimHistogramEstimator() : MultiDimHistogramEstimator(Options{}) {}
  explicit MultiDimHistogramEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "MultiHist"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  Options options_;
  const storage::DatabaseSchema* schema_ = nullptr;
  std::vector<GridHistogram> grids_;          // one per table
  std::vector<double> table_rows_;
  std::vector<std::vector<uint64_t>> distinct_;  // [table][column]
  std::vector<std::vector<std::pair<storage::Value, storage::Value>>>
      full_ranges_;  // [table][grid dim] column min/max at build time
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_TRADITIONAL_MULTIDIM_HISTOGRAM_H_
