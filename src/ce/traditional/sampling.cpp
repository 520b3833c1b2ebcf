#include "src/ce/traditional/sampling.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

Status SamplingEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  (void)training;
  return UpdateWithData(db);
}

Status SamplingEstimator::UpdateWithData(const storage::Database& db) {
  sample_db_ = std::make_unique<storage::Database>(db.schema());
  scale_.assign(db.num_tables(), 1.0);
  Rng rng(options_.seed);
  for (int t = 0; t < db.num_tables(); ++t) {
    const storage::Table& table = db.table(t);
    uint64_t n = table.num_rows();
    uint64_t take = std::min(options_.rows_per_table, n);
    // Partial Fisher–Yates over row ids for a uniform sample w/o replacement.
    std::vector<uint64_t> ids(n);
    for (uint64_t i = 0; i < n; ++i) ids[i] = i;
    for (uint64_t i = 0; i < take; ++i) {
      uint64_t j = i + static_cast<uint64_t>(
                           rng.UniformInt(0, static_cast<int64_t>(n - i) - 1));
      std::swap(ids[i], ids[j]);
    }
    std::vector<std::vector<storage::Value>> cols(table.num_columns());
    for (int c = 0; c < table.num_columns(); ++c) {
      cols[c].reserve(take);
      for (uint64_t i = 0; i < take; ++i) {
        cols[c].push_back(table.column(c)[ids[i]]);
      }
    }
    sample_db_->table(t).AppendColumns(cols);
    scale_[t] = take > 0 ? static_cast<double>(n) / static_cast<double>(take)
                         : 1.0;
  }
  sample_db_->FinalizeAll();
  executor_ = std::make_unique<exec::Executor>(sample_db_.get());
  return Status::OK();
}

double SamplingEstimator::EstimateImpl(const query::Query& q,
                                       ExplainRecord* rec) const {
  LCE_CHECK_MSG(executor_ != nullptr, "Build() before EstimateCardinality()");
  telemetry::StageTimer::Mark("traverse");
  double count = executor_->Cardinality(q);
  telemetry::StageTimer::Mark("postprocess");
  double scale = 1.0;
  for (int t : q.tables) scale *= scale_[t];
  if (rec != nullptr) {
    rec->AddCounter("sample_matches", count);
    rec->AddCounter("scale", scale);
    if (count <= 0) {
      rec->AddFallback("sampling.zero_matches",
                       "no sample row satisfied the query; clamped to 1");
    }
  }
  return std::max(1.0, count * scale);
}

uint64_t SamplingEstimator::SizeBytes() const {
  return sample_db_ ? sample_db_->SizeBytes() : 0;
}

}  // namespace ce
}  // namespace lce
