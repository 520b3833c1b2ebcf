#include "src/ce/query_driven/set_models.h"

#include <algorithm>

#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

namespace {

// Mean-pools each `counts[i]`-row segment of `m` into row i of `out`
// starting at `col_offset`: ascending-row accumulation into a zeroed float
// buffer, then one multiply by 1/rows — so a query's pooled row depends only
// on its own tokens, never on the batch around it.
void SegmentMeanInto(const nn::Matrix& m, const std::vector<int>& counts,
                     int col_offset, nn::Matrix* out) {
  int off = 0;
  std::vector<float> acc(static_cast<size_t>(m.cols()));
  for (size_t i = 0; i < counts.size(); ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int r = 0; r < counts[i]; ++r) {
      const float* row = m.RowPtr(off + r);
      for (int c = 0; c < m.cols(); ++c) acc[c] += row[c];
    }
    const float inv = 1.0f / static_cast<float>(counts[i]);
    float* orow = out->RowPtr(static_cast<int>(i));
    for (int c = 0; c < m.cols(); ++c) orow[col_offset + c] = acc[c] * inv;
    off += counts[i];
  }
}

}  // namespace

struct SetBasedEstimator::SetWorkspace : Workspace {
  struct TokenSet {
    nn::Matrix tokens;        // every query's tokens, query after query
    std::vector<int> counts;  // tokens per query (>= 1: MscnEncode pads)
    nn::MlpTape tape;
  };
  TokenSet sets[3];   // tables, joins, predicates
  nn::Matrix pooled;  // per query: the three mean-pooled set vectors
  nn::MlpTape head;
};

void SetBasedEstimator::InitModel(Rng* rng) {
  int h = options_.hidden_dim;
  int table_dim = use_sample_bitmap_
                      ? encoder().mscn_table_dim()
                      : static_cast<int>(encoder().schema().tables.size());
  const int in_dims[3] = {table_dim, encoder().mscn_join_dim(),
                          encoder().mscn_pred_dim()};
  for (int s = 0; s < 3; ++s) {
    set_mlps_[s] = std::make_unique<nn::Mlp>(
        std::vector<int>{in_dims[s], h, h}, nn::Activation::kRelu,
        nn::Activation::kRelu, rng);
  }
  head_ = std::make_unique<nn::Mlp>(std::vector<int>{3 * h, h, 1},
                                    nn::Activation::kRelu,
                                    nn::Activation::kSigmoid, rng);
}

std::unique_ptr<NeuralQueryDrivenEstimator::Workspace>
SetBasedEstimator::NewWorkspace() const {
  return std::make_unique<SetWorkspace>();
}

nn::Matrix SetBasedEstimator::Forward(QueryBatch queries,
                                      Workspace* ws) const {
  telemetry::StageTimer::Mark("encode");
  const int n = static_cast<int>(queries.size());
  const size_t plain_table_dim = encoder().schema().tables.size();
  SetWorkspace local;
  SetWorkspace& w = ws != nullptr ? static_cast<SetWorkspace&>(*ws) : local;
  // All queries' tokens concatenated per set type; counts delimit each
  // query's segment.
  std::vector<std::vector<float>> rows[3];
  for (auto& set : w.sets) set.counts.resize(n);
  for (int i = 0; i < n; ++i) {
    query::MscnSets sets = encoder().MscnEncode(*queries[i]);
    w.sets[0].counts[i] = static_cast<int>(sets.tables.size());
    w.sets[1].counts[i] = static_cast<int>(sets.joins.size());
    w.sets[2].counts[i] = static_cast<int>(sets.predicates.size());
    for (auto& t : sets.tables) {
      // FCN+Pool's table tokens drop MSCN's sample bitmaps.
      if (!use_sample_bitmap_) t.resize(plain_table_dim);
      rows[0].push_back(std::move(t));
    }
    for (auto& t : sets.joins) rows[1].push_back(std::move(t));
    for (auto& t : sets.predicates) rows[2].push_back(std::move(t));
  }
  telemetry::StageTimer::Mark("forward");
  // One multi-row pass per sub-MLP over every query's tokens at once, then
  // per-query segment pooling, then one multi-row head pass.
  const int h = options_.hidden_dim;
  w.pooled = nn::Matrix(n, 3 * h);
  for (int s = 0; s < 3; ++s) {
    SetWorkspace::TokenSet& set = w.sets[s];
    set.tokens = nn::Matrix::Stack(rows[s]);
    nn::Matrix out =
        set_mlps_[s]->Forward(set.tokens, ws != nullptr ? &set.tape : nullptr);
    SegmentMeanInto(out, set.counts, s * h, &w.pooled);
  }
  return head_->Forward(w.pooled, ws != nullptr ? &w.head : nullptr);
}

void SetBasedEstimator::Backward(const nn::Matrix& dpred, Workspace* ws) {
  auto& w = static_cast<SetWorkspace&>(*ws);
  nn::Matrix dpooled;
  head_->Backward(w.pooled, w.head, dpred, &dpooled);
  const int h = options_.hidden_dim;
  for (int s = 0; s < 3; ++s) {
    const SetWorkspace::TokenSet& set = w.sets[s];
    // Mean pooling: every token row of query i receives dpooled_i / count_i.
    nn::Matrix dtokens(set.tokens.rows(), h);
    int row = 0;
    for (size_t i = 0; i < set.counts.size(); ++i) {
      const float* d = dpooled.RowPtr(static_cast<int>(i)) + s * h;
      const float count = static_cast<float>(set.counts[i]);
      for (int r = 0; r < set.counts[i]; ++r, ++row) {
        float* out = dtokens.RowPtr(row);
        for (int c = 0; c < h; ++c) out[c] = d[c] / count;
      }
    }
    // The weight gradients add one sum per query, as one backward per
    // query did (DESIGN.md §10).
    set_mlps_[s]->Backward(set.tokens, set.tape, dtokens, /*dx=*/nullptr,
                           &set.counts);
  }
}

std::vector<nn::Param*> SetBasedEstimator::Params() {
  std::vector<nn::Param*> params;
  for (nn::Mlp* m : {set_mlps_[0].get(), set_mlps_[1].get(),
                     set_mlps_[2].get(), head_.get()}) {
    for (nn::Param* p : m->Params()) params.push_back(p);
  }
  return params;
}

size_t SetBasedEstimator::NumParams() const {
  size_t n = 0;
  for (const nn::Mlp* m : {set_mlps_[0].get(), set_mlps_[1].get(),
                           set_mlps_[2].get(), head_.get()}) {
    if (m != nullptr) n += m->NumParams();
  }
  return n;
}

}  // namespace ce
}  // namespace lce
