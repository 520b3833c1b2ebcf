#include "src/query/encoder.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/storage/datagen.h"

namespace lce {
namespace query {
namespace {

// The three MSCN token sets of `q`, one vector per token, encoded in place
// by MscnEncodeInto.
struct TokenSets {
  std::vector<std::vector<float>> tables, joins, predicates;
};

TokenSets EncodeSets(const QueryEncoder& encoder, const Query& q) {
  const QueryEncoder::MscnCounts counts = encoder.MscnTokenCounts(q);
  const int ld[3] = {encoder.mscn_table_dim(), encoder.mscn_join_dim(),
                     encoder.mscn_pred_dim()};
  const int n[3] = {counts.tables, counts.joins, counts.predicates};
  std::vector<float> flat[3];
  float* rows[3];
  for (int s = 0; s < 3; ++s) {
    flat[s].assign(static_cast<size_t>(n[s]) * ld[s], -1.0f);
    rows[s] = flat[s].data();
  }
  encoder.MscnEncodeInto(q, /*bitmaps=*/true, rows, ld);
  TokenSets sets;
  std::vector<std::vector<float>>* out[3] = {&sets.tables, &sets.joins,
                                             &sets.predicates};
  for (int s = 0; s < 3; ++s) {
    for (int t = 0; t < n[s]; ++t) {
      out[s]->emplace_back(flat[s].begin() + t * ld[s],
                           flat[s].begin() + (t + 1) * ld[s]);
    }
  }
  return sets;
}

class EncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
    encoder_ = std::make_unique<QueryEncoder>(db_.get(),
                                              QueryEncoder::Options{}, 7);
  }
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<QueryEncoder> encoder_;
};

TEST_F(EncoderTest, FlatDimensionsMatchSchema) {
  int tables = db_->num_tables();
  int joins = static_cast<int>(db_->schema().joins.size());
  int cols = db_->schema().TotalColumns();
  EXPECT_EQ(encoder_->flat_dim(), tables + joins + 2 * cols);
  EXPECT_EQ(encoder_->flat_dim_for(FlatVariant::kRangeOnly), 2 * cols);
  EXPECT_EQ(encoder_->flat_dim_for(FlatVariant::kCoarse),
            encoder_->flat_dim());
}

TEST_F(EncoderTest, FlatEncodingMarksStructure) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  std::vector<float> enc = encoder_->FlatEncode(q);
  EXPECT_FLOAT_EQ(enc[0], 1.0f);  // title
  EXPECT_FLOAT_EQ(enc[1], 1.0f);  // movie_companies
  EXPECT_FLOAT_EQ(enc[2], 0.0f);
  EXPECT_FLOAT_EQ(enc[db_->num_tables()], 1.0f);  // join edge 0
}

TEST_F(EncoderTest, UnconstrainedColumnsEncodeFullRange) {
  Query q;
  q.tables = {0};
  std::vector<float> enc = encoder_->FlatEncode(q);
  int base = db_->num_tables() + static_cast<int>(db_->schema().joins.size());
  for (int c = 0; c < db_->schema().TotalColumns(); ++c) {
    EXPECT_FLOAT_EQ(enc[base + 2 * c], 0.0f);
    EXPECT_FLOAT_EQ(enc[base + 2 * c + 1], 1.0f);
  }
}

TEST_F(EncoderTest, PredicateNormalizationUsesColumnStats) {
  const storage::Table& title = db_->table(0);
  storage::Value min = title.stats(1).min;
  storage::Value max = title.stats(1).max;
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 1}, min, max}};
  std::vector<float> enc = encoder_->FlatEncode(q);
  int base = db_->num_tables() + static_cast<int>(db_->schema().joins.size());
  int gc = db_->schema().GlobalColumnIndex("title", "kind_id");
  EXPECT_FLOAT_EQ(enc[base + 2 * gc], 0.0f);
  EXPECT_FLOAT_EQ(enc[base + 2 * gc + 1], 1.0f);
  // A midpoint predicate lands strictly inside (0, 1).
  q.predicates[0].lo = (min + max) / 2;
  q.predicates[0].hi = (min + max) / 2;
  enc = encoder_->FlatEncode(q);
  EXPECT_GT(enc[base + 2 * gc], 0.1f);
  EXPECT_LT(enc[base + 2 * gc + 1], 0.9f);
}

TEST_F(EncoderTest, CoarseVariantQuantizes) {
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 2}, 13, 77}};
  std::vector<float> full = encoder_->FlatEncode(q, FlatVariant::kFull);
  std::vector<float> coarse = encoder_->FlatEncode(q, FlatVariant::kCoarse);
  for (float v : coarse) {
    float scaled = v * 10.0f;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-4);
  }
  EXPECT_EQ(full.size(), coarse.size());
}

TEST_F(EncoderTest, MscnSetsHaveDocumentedShapes) {
  Query q;
  q.tables = {0, 1, 2};
  q.join_edges = {0, 1};
  q.predicates = {{{0, 1}, 0, 2}};
  TokenSets sets = EncodeSets(*encoder_, q);
  EXPECT_EQ(sets.tables.size(), 3u);
  EXPECT_EQ(sets.joins.size(), 2u);
  EXPECT_EQ(sets.predicates.size(), 1u);
  for (const auto& t : sets.tables) {
    EXPECT_EQ(t.size(), static_cast<size_t>(encoder_->mscn_table_dim()));
  }
  EXPECT_EQ(sets.joins[0].size(),
            static_cast<size_t>(encoder_->mscn_join_dim()));
  EXPECT_EQ(sets.predicates[0].size(),
            static_cast<size_t>(encoder_->mscn_pred_dim()));
}

TEST_F(EncoderTest, MscnEmptySetsGetZeroToken) {
  Query q;
  q.tables = {0};
  TokenSets sets = EncodeSets(*encoder_, q);
  ASSERT_EQ(sets.joins.size(), 1u);
  ASSERT_EQ(sets.predicates.size(), 1u);
  for (float v : sets.joins[0]) EXPECT_FLOAT_EQ(v, 0.0f);
  for (float v : sets.predicates[0]) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST_F(EncoderTest, MscnBitmapTracksSelectivity) {
  // An unconstrained table has an all-ones bitmap; a very selective predicate
  // leaves almost no bits set.
  Query open;
  open.tables = {0};
  TokenSets open_sets = EncodeSets(*encoder_, open);
  int bitmap_base = db_->num_tables();
  int sample = encoder_->mscn_table_dim() - bitmap_base;
  double open_bits = 0;
  for (int s = 0; s < sample; ++s) {
    open_bits += open_sets.tables[0][bitmap_base + s];
  }
  EXPECT_DOUBLE_EQ(open_bits, sample);

  Query narrow = open;
  narrow.predicates = {{{0, 2}, -1000000, -999999}};  // empty range
  TokenSets narrow_sets = EncodeSets(*encoder_, narrow);
  double narrow_bits = 0;
  for (int s = 0; s < sample; ++s) {
    narrow_bits += narrow_sets.tables[0][bitmap_base + s];
  }
  EXPECT_DOUBLE_EQ(narrow_bits, 0);
}

TEST_F(EncoderTest, SequenceHasOneTokenPerItem) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 0, 2}, {{1, 1}, 5, 9}};
  EXPECT_EQ(encoder_->SequenceLength(q), 2 + 1 + 2);  // tables, joins, preds
  const int dim = encoder_->seq_token_dim();
  const int ld = dim + 3;  // rows wider than a token keep their tail
  std::vector<float> rows(static_cast<size_t>(5) * ld, -1.0f);
  encoder_->SequenceEncodeInto(q, rows.data(), ld);
  for (int t = 0; t < 5; ++t) {
    const float* token = rows.data() + t * ld;
    int ones = 0;
    for (int c = 0; c < dim; ++c) ones += token[c] == 1.0f;
    EXPECT_GE(ones, 1) << "token " << t;
    for (int c = dim; c < ld; ++c) EXPECT_EQ(token[c], -1.0f);
  }
  // The first token is table 0's one-hot.
  EXPECT_EQ(rows[0], 1.0f);
}

TEST_F(EncoderTest, LabelTransformRoundTrips) {
  for (double card : {1.0, 10.0, 1234.0, 1e6}) {
    float y = encoder_->NormalizeLog(card);
    EXPECT_GE(y, 0.0f);
    EXPECT_LE(y, 1.0f);
    EXPECT_NEAR(encoder_->DenormalizeLog(y), card, card * 1e-3);
  }
  // Sub-one cardinalities clamp to one tuple.
  EXPECT_DOUBLE_EQ(encoder_->DenormalizeLog(encoder_->NormalizeLog(0.0)), 1.0);
}

}  // namespace
}  // namespace query
}  // namespace lce
