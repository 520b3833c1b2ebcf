#include "src/ce/query_driven/set_models.h"

#include <algorithm>

namespace lce {
namespace ce {

namespace {

// Mean-pools each `counts[i]`-row segment of `m` into row i of `out`
// starting at `col_offset`: ascending-row accumulation into the zeroed
// output floats, then one multiply by 1/rows — so a query's pooled row
// depends only on its own tokens, never on the batch around it.
void SegmentMeanInto(const nn::Matrix& m, const std::vector<int>& counts,
                     int col_offset, nn::Matrix* out) {
  int off = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    float* acc = out->RowPtr(static_cast<int>(i)) + col_offset;
    std::fill(acc, acc + m.cols(), 0.0f);
    for (int r = 0; r < counts[i]; ++r) {
      const float* row = m.RowPtr(off + r);
      for (int c = 0; c < m.cols(); ++c) acc[c] += row[c];
    }
    const float inv = 1.0f / static_cast<float>(counts[i]);
    for (int c = 0; c < m.cols(); ++c) acc[c] *= inv;
    off += counts[i];
  }
}

}  // namespace

struct SetBasedEstimator::SetWorkspace : Workspace {
  struct TokenSet {
    nn::Matrix tokens;        // every query's tokens, query after query
    std::vector<int> counts;  // tokens per query
    nn::MlpTape tape;
    nn::Matrix dtokens;  // dL/d(set MLP output) per token
  };
  TokenSet sets[3];   // tables, joins, predicates
  nn::Matrix pooled;  // per query: the three mean-pooled set vectors
  nn::MlpTape head;
  nn::Matrix dpooled;
};

void SetBasedEstimator::InitModel(Rng* rng) {
  int h = options_.hidden_dim;
  const int in_dims[3] = {TableDim(), encoder().mscn_join_dim(),
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

int SetBasedEstimator::TableDim() const {
  // FCN+Pool's table tokens drop MSCN's sample bitmaps.
  return use_sample_bitmap_
             ? encoder().mscn_table_dim()
             : static_cast<int>(encoder().schema().tables.size());
}

std::unique_ptr<NeuralQueryDrivenEstimator::Workspace>
SetBasedEstimator::NewWorkspace() const {
  return std::make_unique<SetWorkspace>();
}

void SetBasedEstimator::ReserveWorkspace(QueryBatch queries, bool training,
                                         Workspace* ws) const {
  auto& w = static_cast<SetWorkspace&>(*ws);
  const int rows = static_cast<int>(queries.size());
  int tokens[3] = {0, 0, 0};
  for (const query::Query* q : queries) {
    const query::QueryEncoder::MscnCounts c = encoder().MscnTokenCounts(*q);
    tokens[0] += c.tables;
    tokens[1] += c.joins;
    tokens[2] += c.predicates;
  }
  const int h = options_.hidden_dim;
  for (int s = 0; s < 3; ++s) {
    SetWorkspace::TokenSet& set = w.sets[s];
    set.counts.reserve(rows);
    set.tokens.Reserve(tokens[s], set_mlps_[s]->in_dim());
    set_mlps_[s]->Reserve(tokens[s], training, &set.tape);
    if (training) set.dtokens.Reserve(tokens[s], h);
  }
  w.pooled.Reserve(rows, 3 * h);
  head_->Reserve(rows, training, &w.head);
  if (training) w.dpooled.Reserve(rows, 3 * h);
}

void SetBasedEstimator::Encode(QueryBatch queries, Workspace* ws) const {
  auto& w = static_cast<SetWorkspace&>(*ws);
  const int n = static_cast<int>(queries.size());
  // All queries' tokens concatenated per set type; counts delimit each
  // query's segment.
  int totals[3] = {0, 0, 0};
  for (auto& set : w.sets) set.counts.resize(n);
  for (int i = 0; i < n; ++i) {
    const query::QueryEncoder::MscnCounts c =
        encoder().MscnTokenCounts(*queries[i]);
    const int per_set[3] = {c.tables, c.joins, c.predicates};
    for (int s = 0; s < 3; ++s) {
      w.sets[s].counts[i] = per_set[s];
      totals[s] += per_set[s];
    }
  }
  int ld[3];
  for (int s = 0; s < 3; ++s) {
    w.sets[s].tokens.Resize(totals[s], set_mlps_[s]->in_dim());
    ld[s] = w.sets[s].tokens.ld();
  }
  int next[3] = {0, 0, 0};
  for (int i = 0; i < n; ++i) {
    float* rows[3];
    for (int s = 0; s < 3; ++s) {
      rows[s] = w.sets[s].tokens.raw() + static_cast<size_t>(next[s]) * ld[s];
      next[s] += w.sets[s].counts[i];
    }
    encoder().MscnEncodeInto(*queries[i], use_sample_bitmap_, rows, ld);
  }
}

const nn::Matrix& SetBasedEstimator::Forward(Workspace* ws, bool) const {
  auto& w = static_cast<SetWorkspace&>(*ws);
  // One multi-row pass per sub-MLP over every query's tokens at once, then
  // per-query segment pooling, then one multi-row head pass.
  const int h = options_.hidden_dim;
  w.pooled.Resize(static_cast<int>(w.sets[0].counts.size()), 3 * h);
  for (int s = 0; s < 3; ++s) {
    SetWorkspace::TokenSet& set = w.sets[s];
    const nn::Matrix& out = set_mlps_[s]->Forward(set.tokens, &set.tape);
    SegmentMeanInto(out, set.counts, s * h, &w.pooled);
  }
  return head_->Forward(w.pooled, &w.head);
}

void SetBasedEstimator::BackwardChain(Workspace* ws) const {
  auto& w = static_cast<SetWorkspace&>(*ws);
  head_->BackwardChain(w.dpred, &w.head, &w.dpooled);
  const int h = options_.hidden_dim;
  for (int s = 0; s < 3; ++s) {
    SetWorkspace::TokenSet& set = w.sets[s];
    // Mean pooling: every token row of query i receives dpooled_i / count_i.
    set.dtokens.Resize(set.tokens.rows(), h);
    int row = 0;
    for (size_t i = 0; i < set.counts.size(); ++i) {
      const float* d = w.dpooled.RowPtr(static_cast<int>(i)) + s * h;
      const float count = static_cast<float>(set.counts[i]);
      for (int r = 0; r < set.counts[i]; ++r, ++row) {
        float* out = set.dtokens.RowPtr(row);
        for (int c = 0; c < h; ++c) out[c] = d[c] / count;
      }
    }
    set_mlps_[s]->BackwardChain(set.dtokens, &set.tape, /*dx=*/nullptr);
  }
}

void SetBasedEstimator::AddGradSums(std::span<Workspace* const> blocks,
                                    nn::GradSums* sums) {
  std::vector<nn::MlpBlock> mlp_blocks;
  for (Workspace* ws : blocks) {
    auto& w = static_cast<SetWorkspace&>(*ws);
    mlp_blocks.push_back({&w.pooled, &w.head});
  }
  head_->AddGradSums(mlp_blocks, sums);
  for (int s = 0; s < 3; ++s) {
    // The weight gradients add one sum per query, as one backward per
    // query did (DESIGN.md §10).
    mlp_blocks.clear();
    for (Workspace* ws : blocks) {
      auto& w = static_cast<SetWorkspace&>(*ws);
      mlp_blocks.push_back(
          {&w.sets[s].tokens, &w.sets[s].tape, &w.sets[s].counts});
    }
    set_mlps_[s]->AddGradSums(mlp_blocks, sums);
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
