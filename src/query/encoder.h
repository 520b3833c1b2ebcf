// Query featurization for the learned estimators.
//
// Three encodings from the query-driven CE literature:
//  * Flat: [table one-hots | join one-hots | (lo, hi) per global column],
//    consumed by Linear / FCN / FCN+Pool (Dutt et al.'s range featurization).
//  * MSCN sets: {table tokens with sample bitmaps}, {join tokens},
//    {predicate tokens} (Kipf et al.).
//  * Sequence: one token per table/join/predicate item, consumed by the
//    RNN / LSTM estimators (Ortiz et al.).
//
// The encoder snapshots column statistics (for [0,1] range normalization) and
// per-table row samples (for MSCN bitmaps) at construction; estimators keep
// their snapshot when the underlying data drifts, exactly like a deployed
// model whose featurizer was fit at training time.

#ifndef LCE_QUERY_ENCODER_H_
#define LCE_QUERY_ENCODER_H_

#include <cstdint>
#include <vector>

#include "src/query/query.h"
#include "src/storage/database.h"

namespace lce {
namespace query {

/// Variant knob for the encoding-ablation experiment (R12).
enum class FlatVariant {
  kFull,       // table one-hots + join one-hots + normalized ranges
  kRangeOnly,  // normalized ranges only (no structural context)
  kCoarse,     // full layout but ranges quantized to 10 bins
};

class QueryEncoder {
 public:
  struct Options {
    int mscn_sample_size = 64;  // bitmap width per table
  };

  QueryEncoder(const storage::Database* db, Options options, uint64_t seed);

  // -- Flat encoding ---------------------------------------------------------
  int flat_dim() const { return num_tables_ + num_joins_ + 2 * num_columns_; }
  std::vector<float> FlatEncode(const Query& q,
                                FlatVariant variant = FlatVariant::kFull) const;
  /// FlatEncode into `out` (flat_dim_for(variant) floats).
  void FlatEncodeInto(const Query& q, FlatVariant variant, float* out) const;
  int flat_dim_for(FlatVariant variant) const;

  // -- MSCN set encoding -----------------------------------------------------
  int mscn_table_dim() const { return num_tables_ + options_.mscn_sample_size; }
  int mscn_join_dim() const { return std::max(num_joins_, 1); }
  int mscn_pred_dim() const { return num_columns_ + 2; }
  /// Token counts of q's three input sets: tables (one token per table),
  /// joins and predicates. An empty join or predicate set is one all-zero
  /// token, so set pooling stays well-defined.
  struct MscnCounts {
    int tables, joins, predicates;
  };
  MscnCounts MscnTokenCounts(const Query& q) const;
  /// Encodes q's three sets straight into rows: set s's tokens go to
  /// consecutive rows starting at `rows[s]`, `ld[s]` floats apart (tables,
  /// joins, predicates). A table token carries the table one-hot and, with
  /// `bitmaps`, the sample bitmap (mscn_table_dim() floats); without, only
  /// the num_tables() one-hot columns (FCN+Pool's tables).
  void MscnEncodeInto(const Query& q, bool bitmaps, float* const rows[3],
                      const int ld[3]) const;

  // -- Sequence encoding -----------------------------------------------------
  int seq_token_dim() const {
    return num_tables_ + num_joins_ + num_columns_ + 2;
  }
  /// Tokens in q's sequence: one per table, join and predicate, in that
  /// order.
  int SequenceLength(const Query& q) const {
    return static_cast<int>(q.tables.size() + q.join_edges.size() +
                            q.predicates.size());
  }
  /// Encodes q's sequence into SequenceLength(q) rows, `ld` floats apart.
  void SequenceEncodeInto(const Query& q, float* out, int ld) const;

  // -- Label transform -------------------------------------------------------
  /// log(1 + product of all table row counts): the normalizer that maps
  /// log-cardinalities into [0, 1] for sigmoid-output models.
  double max_log_card() const { return max_log_card_; }
  float NormalizeLog(double cardinality) const;
  double DenormalizeLog(float y) const;

  const storage::DatabaseSchema& schema() const { return *schema_; }

 private:
  struct ColumnRange {
    storage::Value min = 0;
    storage::Value max = 0;
  };

  float NormalizeValue(int global_col, storage::Value v) const;

  const storage::DatabaseSchema* schema_;
  const storage::Database* db_;
  Options options_;
  int num_tables_;
  int num_joins_;
  int num_columns_;
  std::vector<int> col_offset_;                // per table: first global column
  std::vector<ColumnRange> ranges_;            // per global column
  std::vector<std::vector<uint64_t>> samples_; // per table: sampled row ids
  double max_log_card_;
};

}  // namespace query
}  // namespace lce

#endif  // LCE_QUERY_ENCODER_H_
