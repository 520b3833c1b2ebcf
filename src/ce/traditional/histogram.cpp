#include "src/ce/traditional/histogram.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

double McvList::FractionInRange(storage::Value lo, storage::Value hi) const {
  double f = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi) f += fractions[i];
  }
  return f;
}

void EquiDepthHistogram::Build(std::vector<storage::Value> values,
                               int num_buckets) {
  bounds_.clear();
  counts_.clear();
  total_ = values.size();
  if (values.empty()) return;
  std::sort(values.begin(), values.end());
  num_buckets = std::max(1, std::min<int>(num_buckets,
                                          static_cast<int>(values.size())));
  bounds_.push_back(values.front());
  size_t per_bucket = values.size() / num_buckets;
  size_t extra = values.size() % num_buckets;
  size_t pos = 0;
  for (int b = 0; b < num_buckets; ++b) {
    size_t take = per_bucket + (static_cast<size_t>(b) < extra ? 1 : 0);
    pos += take;
    counts_.push_back(take);
    bounds_.push_back(values[std::min(pos, values.size()) - 1]);
  }
}

double EquiDepthHistogram::FractionInRange(storage::Value lo,
                                           storage::Value hi) const {
  if (total_ == 0 || counts_.empty() || hi < lo) return 0;
  double covered = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    storage::Value blo = bounds_[b];
    storage::Value bhi = bounds_[b + 1];
    if (bhi < lo || blo > hi) continue;
    double overlap;
    if (bhi == blo) {
      overlap = 1.0;  // point bucket fully inside [lo, hi] here
    } else {
      double olo = static_cast<double>(std::max(lo, blo));
      double ohi = static_cast<double>(std::min(hi, bhi));
      overlap = (ohi - olo + 1.0) /
                (static_cast<double>(bhi) - static_cast<double>(blo) + 1.0);
      overlap = std::clamp(overlap, 0.0, 1.0);
    }
    covered += overlap * static_cast<double>(counts_[b]);
  }
  return covered / static_cast<double>(total_);
}

uint64_t EquiDepthHistogram::SizeBytes() const {
  return bounds_.size() * sizeof(storage::Value) +
         counts_.size() * sizeof(uint64_t);
}

double ColumnStatistics::Selectivity(storage::Value lo,
                                     storage::Value hi) const {
  if (hi < lo || null_free_rows <= 0) return 0;
  double sel = mcv.FractionInRange(lo, hi);
  double hist_mass = 1.0 - mcv.total_fraction;
  if (hist_mass > 0 && !histogram.empty()) {
    sel += hist_mass * histogram.FractionInRange(lo, hi);
  }
  return std::clamp(sel, 0.0, 1.0);
}

Status HistogramEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  (void)training;  // statistics-only estimator
  return UpdateWithData(db);
}

Status HistogramEstimator::UpdateWithData(const storage::Database& db) {
  schema_ = &db.schema();
  stats_.assign(db.num_tables(), {});
  table_rows_.assign(db.num_tables(), 0);
  for (int t = 0; t < db.num_tables(); ++t) {
    const storage::Table& table = db.table(t);
    if (!table.finalized()) {
      return Status::FailedPrecondition("table " + table.name() +
                                        " not finalized");
    }
    table_rows_[t] = static_cast<double>(table.num_rows());
    stats_[t].resize(table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      ColumnStatistics& cs = stats_[t][c];
      const std::vector<storage::Value>& col = table.column(c);
      cs.null_free_rows = static_cast<double>(col.size());
      cs.distinct = std::max<uint64_t>(1, table.stats(c).distinct);

      // Frequency map → MCV list.
      std::map<storage::Value, uint64_t> freq;
      for (storage::Value v : col) ++freq[v];
      std::vector<std::pair<uint64_t, storage::Value>> by_count;
      by_count.reserve(freq.size());
      for (const auto& [v, n] : freq) by_count.push_back({n, v});
      std::sort(by_count.rbegin(), by_count.rend());
      size_t k = std::min<size_t>(options_.num_mcvs, by_count.size());
      cs.mcv = McvList{};
      double n_rows = std::max(1.0, cs.null_free_rows);
      for (size_t i = 0; i < k; ++i) {
        // Only keep values noticeably above the uniform frequency, like
        // PostgreSQL's MCV cutoff.
        double f = static_cast<double>(by_count[i].first) / n_rows;
        if (f * static_cast<double>(cs.distinct) < 1.25 && i > 0) break;
        cs.mcv.values.push_back(by_count[i].second);
        cs.mcv.fractions.push_back(f);
        cs.mcv.total_fraction += f;
      }

      // Histogram over the residual (non-MCV) values.
      std::vector<storage::Value> residual;
      residual.reserve(col.size());
      for (storage::Value v : col) {
        bool is_mcv = std::find(cs.mcv.values.begin(), cs.mcv.values.end(),
                                v) != cs.mcv.values.end();
        if (!is_mcv) residual.push_back(v);
      }
      cs.histogram.Build(std::move(residual), options_.num_buckets);
    }
  }
  return Status::OK();
}

double HistogramEstimator::EstimateImpl(const query::Query& q,
                                        ExplainRecord* rec) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // Bucket lookups plus the join formula; no separate encode step.
  telemetry::StageTimer::Mark("traverse");
  double card = 1.0;
  for (int t : q.tables) {
    double sel = 1.0;
    for (const query::Predicate& p : q.predicates) {
      if (p.col.table != t) continue;
      double s = stats_[t][p.col.column].Selectivity(p.lo, p.hi);
      sel *= s;
      if (rec != nullptr) {
        rec->predicates.push_back(
            {p.col.table, p.col.column, p.lo, p.hi, s, "mcv+equidepth"});
      }
    }
    card *= table_rows_[t] * sel;
  }
  for (int j : q.join_edges) {
    const storage::JoinEdge& e = schema_->joins[j];
    int lt = schema_->TableIndex(e.left_table);
    int rt = schema_->TableIndex(e.right_table);
    int lc = schema_->tables[lt].ColumnIndex(e.left_column);
    int rc = schema_->tables[rt].ColumnIndex(e.right_column);
    double ndv = static_cast<double>(
        std::max(stats_[lt][lc].distinct, stats_[rt][rc].distinct));
    card /= std::max(1.0, ndv);
    if (rec != nullptr) {
      rec->AddCounter("join." + e.left_table + "-" + e.right_table + ".ndv",
                      ndv);
    }
  }
  return std::max(1.0, card);
}

uint64_t HistogramEstimator::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& table_stats : stats_) {
    for (const auto& cs : table_stats) {
      bytes += cs.histogram.SizeBytes();
      bytes += cs.mcv.values.size() * (sizeof(storage::Value) + sizeof(double));
      bytes += sizeof(ColumnStatistics);
    }
  }
  return bytes;
}

}  // namespace ce
}  // namespace lce
