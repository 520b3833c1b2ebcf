// The shell of the per-table data-driven estimators (Naru, DeepDB-SPN,
// BayesNet): one TableModel fitted per table, the per-table sizes joined by
// the distinct-count formula (join_formula.h) or by measured edge
// selectivities, optionally rescaled by the fanout correction
// (edge_selectivity.h).
//
// A TableModel provides Fit(table, options, rng), Selectivity(ranges, ...),
// ModelsColumn(c) and SizeBytes(); its Options carry max_training_rows,
// use_edge_selectivity and use_fanout_correction. Each family keeps its
// constructors, Name, DescribeModel and EstimateImpl: its stage, per-query
// randomness and statistics, predicate sources, fallback sites and counters.

#ifndef LCE_CE_DATA_DRIVEN_PER_TABLE_H_
#define LCE_CE_DATA_DRIVEN_PER_TABLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/ce/data_driven/binning.h"
#include "src/ce/edge_selectivity.h"
#include "src/ce/estimator.h"
#include "src/ce/join_formula.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

template <typename TableModel>
class PerTableEstimator : public Estimator {
 public:
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override {
    (void)training;  // data-driven: learns from the data alone
    return UpdateWithData(db);
  }

  /// Refits every table's model from scratch, each on its own Rng forked
  /// from the seed in table order.
  Status UpdateWithData(const storage::Database& db) override {
    schema_ = &db.schema();
    Rng rng(seed_);
    models_.clear();
    models_.resize(db.num_tables());
    table_rows_.assign(db.num_tables(), 0);
    distinct_.assign(db.num_tables(), {});
    train_examples_ = 0;
    for (int t = 0; t < db.num_tables(); ++t) {
      const storage::Table& table = db.table(t);
      if (!table.finalized()) {
        return Status::FailedPrecondition("table not finalized");
      }
      Rng fork = rng.Fork();
      models_[t].Fit(table, options_, &fork);
      train_examples_ += static_cast<int64_t>(
          std::min(options_.max_training_rows, table.num_rows()));
      table_rows_[t] = static_cast<double>(table.num_rows());
      distinct_[t].resize(table.num_columns());
      for (int c = 0; c < table.num_columns(); ++c) {
        distinct_[t][c] = std::max<uint64_t>(1, table.stats(c).distinct);
      }
    }
    if (options_.use_edge_selectivity) {
      edge_rho_ = ComputeEdgeSelectivities(db);
    }
    if (options_.use_fanout_correction) {
      fanout_.Build(db, FanoutCorrection::Options{});
    }
    return Status::OK();
  }

  uint64_t SizeBytes() const override {
    uint64_t bytes = 0;
    for (const TableModel& m : models_) bytes += m.SizeBytes();
    return bytes;
  }

 protected:
  PerTableEstimator(typename TableModel::Options options, uint64_t seed)
      : options_(options), seed_(seed) {}

  /// Explains each predicate of `q` as scored jointly (selectivity -1):
  /// `modeled` when its table's model covers the column, else `unmodeled`
  /// plus the fallback event `fallback_site`. Returns the modeled count.
  int ExplainPredicates(const query::Query& q, const char* modeled,
                        const char* unmodeled, const char* fallback_site,
                        ExplainRecord* rec) const {
    int covered = 0;
    for (const query::Predicate& p : q.predicates) {
      bool models = models_[p.col.table].ModelsColumn(p.col.column);
      rec->predicates.push_back({p.col.table, p.col.column, p.lo, p.hi, -1.0,
                                 models ? modeled : unmodeled});
      if (models) {
        ++covered;
      } else {
        rec->AddFallback(fallback_site,
                         "table=" + std::to_string(p.col.table) +
                             " column=" + std::to_string(p.col.column));
      }
    }
    return covered;
  }

  /// |Q|, at least one tuple: each table t of `q`, in q.tables order,
  /// contributes |t| * table_sel(t, its ColumnRanges under `q`), joined by
  /// the configured combination and rescaled by the fanout correction. With
  /// `rec`, records table_sel.t<t> per table, runs `add_counters()`, and
  /// records fanout_correction last.
  template <typename TableSel, typename AddCounters>
  double JoinTables(const query::Query& q, TableSel&& table_sel,
                    ExplainRecord* rec, AddCounters&& add_counters) const {
    auto filtered_rows = [&](int t) {
      ColumnRanges ranges(schema_->tables[t].columns.size());
      for (const query::Predicate& p : q.predicates) {
        if (p.col.table == t) ranges[p.col.column] = {{p.lo, p.hi}};
      }
      double sel = table_sel(t, ranges);
      if (rec != nullptr) {
        rec->AddCounter("table_sel.t" + std::to_string(t), sel);
      }
      return table_rows_[t] * sel;
    };
    double correction =
        options_.use_fanout_correction ? fanout_.CorrectionFactor(q) : 1.0;
    double base =
        options_.use_edge_selectivity
            ? CombineWithEdgeSelectivities(*schema_, q, filtered_rows,
                                           edge_rho_)
            : CombineWithJoinFormula(*schema_, q, filtered_rows,
                                     [&](int t, int c) {
                                       return static_cast<double>(
                                           distinct_[t][c]);
                                     });
    if (rec != nullptr) {
      add_counters();
      rec->AddCounter("fanout_correction", correction);
    }
    return std::max(1.0, base * correction);
  }

  typename TableModel::Options options_;
  uint64_t seed_;  // training forks (and Naru's per-query streams)
  const storage::DatabaseSchema* schema_ = nullptr;
  std::vector<TableModel> models_;
  int64_t train_examples_ = -1;
  std::vector<double> table_rows_;
  std::vector<std::vector<uint64_t>> distinct_;
  std::vector<double> edge_rho_;
  FanoutCorrection fanout_;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_DATA_DRIVEN_PER_TABLE_H_
