#include "src/ce/traditional/multidim_histogram.h"

#include <algorithm>
#include <cmath>

#include "src/storage/table.h"
#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace ce {

void GridHistogram::Build(const storage::Table& table,
                          const std::vector<int>& columns,
                          uint64_t max_cells) {
  columns_ = columns;
  bins_.clear();
  min_.clear();
  max_.clear();
  cells_.clear();
  total_ = static_cast<double>(table.num_rows());
  if (columns_.empty()) return;

  int d = static_cast<int>(columns_.size());
  // Per-dimension bins: floor(max_cells^(1/d)), at least 2, at most 64.
  int per_dim = std::max(
      2, static_cast<int>(std::pow(static_cast<double>(max_cells),
                                   1.0 / static_cast<double>(d))));
  per_dim = std::min(per_dim, 64);

  uint64_t cells = 1;
  for (int i = 0; i < d; ++i) {
    const storage::ColumnStats& s = table.stats(columns_[i]);
    min_.push_back(s.min);
    max_.push_back(s.max);
    // A dimension never needs more bins than distinct values.
    int b = std::min<int>(per_dim, std::max<uint64_t>(1, s.distinct));
    bins_.push_back(b);
    cells *= static_cast<uint64_t>(b);
  }
  cells_.assign(cells, 0.0);

  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    uint64_t idx = 0;
    for (int i = 0; i < d; ++i) {
      storage::Value v = table.column(columns_[i])[r];
      double span = static_cast<double>(max_[i] - min_[i]) + 1.0;
      int bin = static_cast<int>(static_cast<double>(v - min_[i]) /
                                 span * bins_[i]);
      bin = std::clamp(bin, 0, bins_[i] - 1);
      idx = idx * static_cast<uint64_t>(bins_[i]) + static_cast<uint64_t>(bin);
    }
    cells_[idx] += 1.0;
  }
}

double GridHistogram::Selectivity(
    const std::vector<std::pair<storage::Value, storage::Value>>& ranges) const {
  if (total_ <= 0) return 0;
  if (columns_.empty()) return 1.0;
  LCE_CHECK(ranges.size() == columns_.size());
  int d = static_cast<int>(columns_.size());

  // Per dimension, the overlapped bins and their coverage fractions.
  std::vector<std::vector<std::pair<int, double>>> dim_bins(d);
  for (int i = 0; i < d; ++i) {
    auto [lo, hi] = ranges[i];
    if (hi < lo) return 0;
    double span = static_cast<double>(max_[i] - min_[i]) + 1.0;
    double bin_width = span / bins_[i];
    for (int b = 0; b < bins_[i]; ++b) {
      double blo = static_cast<double>(min_[i]) + b * bin_width;
      double bhi = blo + bin_width;  // exclusive
      double olo = std::max(blo, static_cast<double>(lo));
      double ohi = std::min(bhi, static_cast<double>(hi) + 1.0);
      if (ohi <= olo) continue;
      dim_bins[i].push_back({b, (ohi - olo) / bin_width});
    }
    if (dim_bins[i].empty()) return 0;
  }

  // Walk the cross product of overlapped bins (small: ranges are narrow).
  double mass = 0;
  std::vector<size_t> cursor(d, 0);
  for (;;) {
    uint64_t idx = 0;
    double frac = 1.0;
    for (int i = 0; i < d; ++i) {
      auto [bin, coverage] = dim_bins[i][cursor[i]];
      idx = idx * static_cast<uint64_t>(bins_[i]) + static_cast<uint64_t>(bin);
      frac *= coverage;
    }
    mass += cells_[idx] * frac;
    int i = d - 1;
    while (i >= 0 && ++cursor[i] == dim_bins[i].size()) {
      cursor[i] = 0;
      --i;
    }
    if (i < 0) break;
  }
  return std::clamp(mass / total_, 0.0, 1.0);
}

Status MultiDimHistogramEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  (void)training;
  return UpdateWithData(db);
}

Status MultiDimHistogramEstimator::UpdateWithData(const storage::Database& db) {
  schema_ = &db.schema();
  grids_.assign(db.num_tables(), {});
  table_rows_.assign(db.num_tables(), 0);
  distinct_.assign(db.num_tables(), {});
  full_ranges_.assign(db.num_tables(), {});
  for (int t = 0; t < db.num_tables(); ++t) {
    const storage::Table& table = db.table(t);
    if (!table.finalized()) {
      return Status::FailedPrecondition("table not finalized");
    }
    table_rows_[t] = static_cast<double>(table.num_rows());
    distinct_[t].resize(table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      distinct_[t][c] = std::max<uint64_t>(1, table.stats(c).distinct);
    }
    std::vector<int> grid_cols;
    for (int c = 0; c < table.num_columns() &&
                    static_cast<int>(grid_cols.size()) < options_.max_dims;
         ++c) {
      if (!table.schema().columns[c].is_key) grid_cols.push_back(c);
    }
    grids_[t].Build(table, grid_cols, options_.max_cells);
    for (int c : grid_cols) {
      full_ranges_[t].push_back({table.stats(c).min, table.stats(c).max});
    }
  }
  return Status::OK();
}

double MultiDimHistogramEstimator::EstimateImpl(const query::Query& q,
                                                ExplainRecord* rec) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // Grid probes plus the join formula; no separate encode step.
  telemetry::StageTimer::Mark("traverse");
  static telemetry::Counter& fallback_counter =
      telemetry::MetricsRegistry::Global().counter(
          "ce.multihist.uniform_fallback");
  double card = 1.0;
  for (int t : q.tables) {
    // Ranges per grid dimension, defaulting to the full column range.
    std::vector<std::pair<storage::Value, storage::Value>> ranges =
        full_ranges_[t];
    double extra_sel = 1.0;  // predicates on columns outside the grid
    for (const query::Predicate& p : q.predicates) {
      if (p.col.table != t) continue;
      const auto& cols = grids_[t].columns();
      auto it = std::find(cols.begin(), cols.end(), p.col.column);
      if (it != cols.end()) {
        size_t dim = static_cast<size_t>(it - cols.begin());
        ranges[dim].first = std::max(ranges[dim].first, p.lo);
        ranges[dim].second = std::min(ranges[dim].second, p.hi);
        if (rec != nullptr) {
          // Joint (grid) selectivity cannot be attributed per predicate.
          rec->predicates.push_back(
              {p.col.table, p.col.column, p.lo, p.hi, -1.0, "grid"});
        }
      } else {
        // Uniform fallback for non-gridded columns.
        fallback_counter.Increment();
        double dom = static_cast<double>(distinct_[t][p.col.column]);
        double width = static_cast<double>(p.hi - p.lo) + 1.0;
        double s = std::clamp(width / dom, 0.0, 1.0);
        extra_sel *= s;
        if (rec != nullptr) {
          rec->predicates.push_back(
              {p.col.table, p.col.column, p.lo, p.hi, s, "uniform_fallback"});
          rec->AddFallback("multihist.uniform_column",
                           "table=" + std::to_string(t) +
                               " column=" + std::to_string(p.col.column));
        }
      }
    }
    double grid_sel = grids_[t].Selectivity(ranges);
    if (rec != nullptr) {
      rec->AddCounter("grid_sel.t" + std::to_string(t), grid_sel);
    }
    card *= table_rows_[t] * grid_sel * extra_sel;
  }
  for (int j : q.join_edges) {
    const storage::JoinEdge& e = schema_->joins[j];
    int lt = schema_->TableIndex(e.left_table);
    int rt = schema_->TableIndex(e.right_table);
    int lc = schema_->tables[lt].ColumnIndex(e.left_column);
    int rc = schema_->tables[rt].ColumnIndex(e.right_column);
    card /= std::max(1.0, static_cast<double>(std::max(distinct_[lt][lc],
                                                       distinct_[rt][rc])));
  }
  return std::max(1.0, card);
}

uint64_t MultiDimHistogramEstimator::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& g : grids_) bytes += g.SizeBytes();
  return bytes;
}

}  // namespace ce
}  // namespace lce
