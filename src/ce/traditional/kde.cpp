#include "src/ce/traditional/kde.h"

#include <algorithm>
#include <cmath>

#include "src/ce/join_formula.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

namespace {

// Standard normal CDF.
double Phi(double z) { return 0.5 * (1.0 + std::erf(z / std::sqrt(2.0))); }

}  // namespace

Status KdeEstimator::Build(const storage::Database& db,
                           const std::vector<query::LabeledQuery>& training) {
  (void)training;
  return UpdateWithData(db);
}

Status KdeEstimator::UpdateWithData(const storage::Database& db) {
  schema_ = &db.schema();
  tables_.assign(db.num_tables(), {});
  distinct_.assign(db.num_tables(), {});
  Rng rng(options_.seed);
  for (int t = 0; t < db.num_tables(); ++t) {
    const storage::Table& table = db.table(t);
    if (!table.finalized()) {
      return Status::FailedPrecondition("table not finalized");
    }
    TableKde& kde = tables_[t];
    kde.rows = static_cast<double>(table.num_rows());
    uint64_t n = table.num_rows();
    uint64_t take = std::min(options_.sample_rows, n);
    std::vector<uint64_t> ids(n);
    for (uint64_t i = 0; i < n; ++i) ids[i] = i;
    for (uint64_t i = 0; i < take; ++i) {
      uint64_t j = i + static_cast<uint64_t>(
                           rng.UniformInt(0, static_cast<int64_t>(n - i) - 1));
      std::swap(ids[i], ids[j]);
    }
    kde.sample.resize(table.num_columns());
    kde.bandwidth.resize(table.num_columns());
    distinct_[t].resize(table.num_columns());
    // Scott's rule in d=1 per column: h = sigma * m^(-1/5), floored at half a
    // value step so point predicates keep mass.
    for (int c = 0; c < table.num_columns(); ++c) {
      distinct_[t][c] = std::max<uint64_t>(1, table.stats(c).distinct);
      auto& col_sample = kde.sample[c];
      col_sample.resize(take);
      for (uint64_t i = 0; i < take; ++i) {
        col_sample[i] = static_cast<double>(table.column(c)[ids[i]]);
      }
      double sigma = StdDev(col_sample);
      double h = sigma * std::pow(static_cast<double>(std::max<uint64_t>(take, 2)),
                                  -0.2);
      kde.bandwidth[c] = std::max(h, 0.5);
    }
  }
  return Status::OK();
}

double KdeEstimator::TableSelectivity(const query::Query& q, int table) const {
  const TableKde& kde = tables_[table];
  if (kde.sample.empty() || kde.sample[0].empty()) return 1.0;
  size_t m = kde.sample[0].size();
  // Collect the constrained columns once.
  std::vector<const query::Predicate*> preds;
  for (const query::Predicate& p : q.predicates) {
    if (p.col.table == table) preds.push_back(&p);
  }
  if (preds.empty()) return 1.0;
  double total = 0;
  for (size_t i = 0; i < m; ++i) {
    double w = 1.0;
    for (const query::Predicate* p : preds) {
      double x = kde.sample[p->col.column][i];
      double h = kde.bandwidth[p->col.column];
      double mass = Phi((static_cast<double>(p->hi) + 0.5 - x) / h) -
                    Phi((static_cast<double>(p->lo) - 0.5 - x) / h);
      w *= std::clamp(mass, 0.0, 1.0);
      if (w <= 0) break;
    }
    total += w;
  }
  return total / static_cast<double>(m);
}

double KdeEstimator::EstimateImpl(const query::Query& q,
                                  ExplainRecord*) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // Kernel sums over the stored samples plus the join formula.
  telemetry::StageTimer::Mark("traverse");
  return CombineWithJoinFormula(
      *schema_, q,
      [&](int t) { return tables_[t].rows * TableSelectivity(q, t); },
      [&](int t, int c) { return static_cast<double>(distinct_[t][c]); });
}

uint64_t KdeEstimator::SizeBytes() const {
  uint64_t bytes = 0;
  for (const TableKde& kde : tables_) {
    for (const auto& col : kde.sample) bytes += col.size() * sizeof(double);
    bytes += kde.bandwidth.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace ce
}  // namespace lce
