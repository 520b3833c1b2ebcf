#include "src/query/encoder.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace lce {
namespace query {

QueryEncoder::QueryEncoder(const storage::Database* db, Options options,
                           uint64_t seed)
    : schema_(&db->schema()),
      db_(db),
      options_(options),
      num_tables_(db->num_tables()),
      num_joins_(static_cast<int>(schema_->joins.size())),
      num_columns_(schema_->TotalColumns()) {
  LCE_CHECK(options_.mscn_sample_size >= 1);
  Rng rng(seed ^ 0xe2c0deULL);
  int offset = 0;
  double log_prod = 0;
  for (int t = 0; t < num_tables_; ++t) {
    col_offset_.push_back(offset);
    const storage::Table& table = db->table(t);
    LCE_CHECK_MSG(table.finalized(), "encoder needs finalized tables");
    for (int c = 0; c < table.num_columns(); ++c) {
      ranges_.push_back({table.stats(c).min, table.stats(c).max});
    }
    offset += table.num_columns();
    log_prod += std::log(static_cast<double>(table.num_rows()) + 1.0);
    // Reservoir-free sampling: rows are in no particular order, so uniform
    // index draws suffice for the MSCN bitmap sample.
    std::vector<uint64_t> sample;
    uint64_t n = table.num_rows();
    for (int s = 0; s < options_.mscn_sample_size && n > 0; ++s) {
      sample.push_back(static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
    }
    samples_.push_back(std::move(sample));
  }
  max_log_card_ = std::max(log_prod, 1.0);
}

float QueryEncoder::NormalizeValue(int global_col, storage::Value v) const {
  const ColumnRange& r = ranges_[global_col];
  if (r.max <= r.min) return 0.5f;
  double x = static_cast<double>(v - r.min) /
             static_cast<double>(r.max - r.min);
  return static_cast<float>(std::clamp(x, 0.0, 1.0));
}

int QueryEncoder::flat_dim_for(FlatVariant variant) const {
  switch (variant) {
    case FlatVariant::kFull:
    case FlatVariant::kCoarse:
      return flat_dim();
    case FlatVariant::kRangeOnly:
      return 2 * num_columns_;
  }
  return flat_dim();
}

std::vector<float> QueryEncoder::FlatEncode(const Query& q,
                                            FlatVariant variant) const {
  std::vector<float> out(flat_dim_for(variant));
  FlatEncodeInto(q, variant, out.data());
  return out;
}

void QueryEncoder::FlatEncodeInto(const Query& q, FlatVariant variant,
                                  float* out) const {
  bool structural = variant != FlatVariant::kRangeOnly;
  std::fill(out, out + flat_dim_for(variant), 0.0f);
  int range_base = structural ? num_tables_ + num_joins_ : 0;
  // Default range for every column: [0, 1] (unconstrained).
  for (int c = 0; c < num_columns_; ++c) {
    out[range_base + 2 * c] = 0.0f;
    out[range_base + 2 * c + 1] = 1.0f;
  }
  if (structural) {
    for (int t : q.tables) out[t] = 1.0f;
    for (int j : q.join_edges) out[num_tables_ + j] = 1.0f;
  }
  for (const Predicate& p : q.predicates) {
    int gc = col_offset_[p.col.table] + p.col.column;
    float lo = NormalizeValue(gc, p.lo);
    float hi = NormalizeValue(gc, p.hi);
    if (variant == FlatVariant::kCoarse) {
      lo = std::floor(lo * 10.0f) / 10.0f;
      hi = std::ceil(hi * 10.0f) / 10.0f;
    }
    out[range_base + 2 * gc] = lo;
    out[range_base + 2 * gc + 1] = hi;
  }
}

QueryEncoder::MscnCounts QueryEncoder::MscnTokenCounts(const Query& q) const {
  return {static_cast<int>(q.tables.size()),
          std::max(static_cast<int>(q.join_edges.size()), 1),
          std::max(static_cast<int>(q.predicates.size()), 1)};
}

void QueryEncoder::MscnEncodeInto(const Query& q, bool bitmaps,
                                  float* const rows[3], const int ld[3]) const {
  const int table_dim = bitmaps ? mscn_table_dim() : num_tables_;
  float* token = rows[0];
  for (int t : q.tables) {
    std::fill(token, token + table_dim, 0.0f);
    token[t] = 1.0f;
    if (bitmaps) {
      // Bitmap: 1 when the sampled row satisfies every predicate on table t.
      const storage::Table& table = db_->table(t);
      for (size_t s = 0; s < samples_[t].size(); ++s) {
        uint64_t row = samples_[t][s];
        if (row >= table.num_rows()) continue;  // defensive vs. truncation
        bool pass = true;
        for (const Predicate& p : q.predicates) {
          if (p.col.table != t) continue;
          storage::Value v = table.column(p.col.column)[row];
          if (v < p.lo || v > p.hi) {
            pass = false;
            break;
          }
        }
        if (pass) token[num_tables_ + static_cast<int>(s)] = 1.0f;
      }
    }
    token += ld[0];
  }
  // Empty join and predicate sets are one all-zero token.
  token = rows[1];
  std::fill(token, token + mscn_join_dim(), 0.0f);
  for (int j : q.join_edges) {
    std::fill(token, token + mscn_join_dim(), 0.0f);
    token[j] = 1.0f;
    token += ld[1];
  }
  token = rows[2];
  std::fill(token, token + mscn_pred_dim(), 0.0f);
  for (const Predicate& p : q.predicates) {
    std::fill(token, token + mscn_pred_dim(), 0.0f);
    int gc = col_offset_[p.col.table] + p.col.column;
    token[gc] = 1.0f;
    token[num_columns_] = NormalizeValue(gc, p.lo);
    token[num_columns_ + 1] = NormalizeValue(gc, p.hi);
    token += ld[2];
  }
}

void QueryEncoder::SequenceEncodeInto(const Query& q, float* out,
                                      int ld) const {
  // Token layout: [tables | joins | columns | lo, hi].
  const int dim = seq_token_dim();
  const int join_base = num_tables_;
  const int col_base = num_tables_ + num_joins_;
  const int range_base = col_base + num_columns_;
  float* token = out;
  auto next = [&] {
    float* t = token;
    std::fill(t, t + dim, 0.0f);
    token += ld;
    return t;
  };
  for (int t : q.tables) next()[t] = 1.0f;
  for (int j : q.join_edges) next()[join_base + j] = 1.0f;
  for (const Predicate& p : q.predicates) {
    float* t = next();
    int gc = col_offset_[p.col.table] + p.col.column;
    t[col_base + gc] = 1.0f;
    t[range_base] = NormalizeValue(gc, p.lo);
    t[range_base + 1] = NormalizeValue(gc, p.hi);
  }
}

float QueryEncoder::NormalizeLog(double cardinality) const {
  double c = std::max(cardinality, 1.0);
  return static_cast<float>(std::log(c) / max_log_card_);
}

double QueryEncoder::DenormalizeLog(float y) const {
  double log_card = static_cast<double>(y) * max_log_card_;
  return std::max(1.0, std::exp(log_card));
}

}  // namespace query
}  // namespace lce
