// Column discretization shared by the data-driven estimators.
//
// Naru-style autoregressive models, SPNs, and Bayesian networks all model
// per-table joint distributions over discretized columns; ranges are mapped
// to bins with a uniformity correction inside partially covered bins.

#ifndef LCE_CE_DATA_DRIVEN_BINNING_H_
#define LCE_CE_DATA_DRIVEN_BINNING_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/storage/table.h"

namespace lce {
namespace ce {

/// A query's constraint on each table-local column, [lo, hi] or nullopt for
/// an unconstrained column: what a table model's Selectivity scores.
using ColumnRanges =
    std::vector<std::optional<std::pair<storage::Value, storage::Value>>>;

/// Equi-width binning of one column's value range.
class ColumnBinner {
 public:
  /// At most `max_bins` bins; collapses to one bin per distinct value when
  /// the domain is small.
  void Fit(const storage::ColumnStats& stats, int max_bins);

  int num_bins() const { return bins_; }

  int BinOf(storage::Value v) const;

  /// Bins overlapped by [lo, hi] with their coverage fraction (assuming
  /// uniformity within a bin). Empty when the range misses the domain.
  std::vector<std::pair<int, double>> Overlap(storage::Value lo,
                                              storage::Value hi) const;

 private:
  storage::Value min_ = 0;
  storage::Value max_ = 0;
  int bins_ = 1;
  double width_ = 1;
};

/// Fits binners for all columns of a table.
std::vector<ColumnBinner> FitBinners(const storage::Table& table,
                                     int max_bins);

/// Materializes the binned matrix [row][column] of a table.
std::vector<std::vector<int>> BinTable(const storage::Table& table,
                                       const std::vector<ColumnBinner>& binners);

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_DATA_DRIVEN_BINNING_H_
