#include "src/ce/data_driven/spn.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/stats.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/train_log.h"

namespace lce {
namespace ce {

void SpnTableModel::Fit(const storage::Table& table, const Options& options,
                        Rng* rng) {
  options_ = options;
  binners_ = FitBinners(table, options.max_bins);
  nodes_.clear();
  modeled_cols_.clear();
  model_index_of_col_.assign(table.num_columns(), -1);
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!table.schema().columns[c].is_key) {
      model_index_of_col_[c] = static_cast<int>(modeled_cols_.size());
      modeled_cols_.push_back(c);
    }
  }
  if (modeled_cols_.empty()) {
    root_ = -1;
    return;
  }

  // Sampled, binned training matrix [row][modeled col].
  uint64_t n = table.num_rows();
  uint64_t take = std::min(options.max_training_rows, n);
  std::vector<std::vector<int>> data(take,
                                     std::vector<int>(modeled_cols_.size()));
  const bool train_log = telemetry::TrainLogEnabled();
  {
    telemetry::ScopedPhase phase("spn/sample_bin");
    int64_t phase_start = train_log ? telemetry::MonotonicNanos() : 0;
    std::vector<uint64_t> ids(n);
    for (uint64_t i = 0; i < n; ++i) ids[i] = i;
    for (uint64_t i = 0; i < take; ++i) {
      uint64_t j = i + static_cast<uint64_t>(
                           rng->UniformInt(0, static_cast<int64_t>(n - i) - 1));
      std::swap(ids[i], ids[j]);
    }
    for (size_t m = 0; m < modeled_cols_.size(); ++m) {
      const auto& col = table.column(modeled_cols_[m]);
      for (uint64_t i = 0; i < take; ++i) {
        data[i][m] = binners_[modeled_cols_[m]].BinOf(col[ids[i]]);
      }
    }
    if (train_log) {
      telemetry::TrainingEvent ev;
      ev.family = "spn";
      ev.event = "phase";
      ev.phase = "sample_bin";
      ev.index = 0;
      ev.examples = static_cast<int64_t>(take);
      ev.wall_seconds =
          static_cast<double>(telemetry::MonotonicNanos() - phase_start) / 1e9;
      ev.extra.emplace_back("columns",
                            static_cast<double>(modeled_cols_.size()));
      telemetry::RecordTrainingEvent(std::move(ev));
    }
  }

  telemetry::ScopedPhase phase("spn/structure");
  int64_t structure_start = train_log ? telemetry::MonotonicNanos() : 0;
  std::vector<uint32_t> rows(take);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  std::vector<int> cols(modeled_cols_.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  root_ = BuildNode(data, rows, cols, rng);
  if (train_log) {
    telemetry::TrainingEvent ev;
    ev.family = "spn";
    ev.event = "phase";
    ev.phase = "structure";
    ev.index = 1;
    ev.examples = static_cast<int64_t>(take);
    ev.wall_seconds =
        static_cast<double>(telemetry::MonotonicNanos() - structure_start) /
        1e9;
    ev.extra.emplace_back("nodes", static_cast<double>(nodes_.size()));
    telemetry::RecordTrainingEvent(std::move(ev));
  }
}

int SpnTableModel::MakeLeaf(const std::vector<std::vector<int>>& data,
                            const std::vector<uint32_t>& rows, int col) {
  Node leaf;
  leaf.kind = Node::Kind::kLeaf;
  leaf.column = modeled_cols_[col];
  int bins = binners_[leaf.column].num_bins();
  leaf.histogram.assign(bins, 1e-6);
  for (uint32_t r : rows) leaf.histogram[data[r][col]] += 1.0;
  double total = 0;
  for (double v : leaf.histogram) total += v;
  for (double& v : leaf.histogram) v /= total;
  nodes_.push_back(std::move(leaf));
  return static_cast<int>(nodes_.size()) - 1;
}

int SpnTableModel::BuildNode(const std::vector<std::vector<int>>& data,
                             const std::vector<uint32_t>& rows,
                             const std::vector<int>& cols, Rng* rng) {
  LCE_CHECK(!cols.empty());
  if (cols.size() == 1) return MakeLeaf(data, rows, cols[0]);

  // Too few rows: independence (product of leaves).
  if (rows.size() < options_.min_rows_split) {
    Node prod;
    prod.kind = Node::Kind::kProduct;
    std::vector<int> children;
    for (int c : cols) children.push_back(MakeLeaf(data, rows, c));
    prod.children = std::move(children);
    nodes_.push_back(std::move(prod));
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Column split: connected components of |corr| >= threshold.
  size_t d = cols.size();
  std::vector<std::vector<double>> values(d,
                                          std::vector<double>(rows.size()));
  for (size_t i = 0; i < d; ++i) {
    for (size_t r = 0; r < rows.size(); ++r) {
      values[i][r] = static_cast<double>(data[rows[r]][cols[i]]);
    }
  }
  std::vector<int> component(d, -1);
  int num_components = 0;
  for (size_t i = 0; i < d; ++i) {
    if (component[i] >= 0) continue;
    // BFS over the dependency graph.
    std::vector<size_t> frontier = {i};
    component[i] = num_components;
    while (!frontier.empty()) {
      size_t cur = frontier.back();
      frontier.pop_back();
      for (size_t j = 0; j < d; ++j) {
        if (component[j] >= 0) continue;
        if (std::abs(PearsonCorrelation(values[cur], values[j])) >=
            options_.corr_threshold) {
          component[j] = num_components;
          frontier.push_back(j);
        }
      }
    }
    ++num_components;
  }
  if (num_components > 1) {
    Node prod;
    prod.kind = Node::Kind::kProduct;
    std::vector<int> children;
    for (int comp = 0; comp < num_components; ++comp) {
      std::vector<int> group;
      for (size_t i = 0; i < d; ++i) {
        if (component[i] == comp) group.push_back(cols[i]);
      }
      children.push_back(BuildNode(data, rows, group, rng));
    }
    prod.children = std::move(children);
    nodes_.push_back(std::move(prod));
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Row split: 2-means on normalized bins.
  std::vector<std::vector<double>> centroid(2, std::vector<double>(d, 0.0));
  // Initialize with two random rows.
  for (int k = 0; k < 2; ++k) {
    uint32_t r = rows[rng->Below(static_cast<uint32_t>(rows.size()))];
    for (size_t i = 0; i < d; ++i) {
      centroid[k][i] = static_cast<double>(data[r][cols[i]]);
    }
  }
  std::vector<int> assign(rows.size(), 0);
  for (int iter = 0; iter < options_.kmeans_iters; ++iter) {
    for (size_t r = 0; r < rows.size(); ++r) {
      double dist[2] = {0, 0};
      for (int k = 0; k < 2; ++k) {
        for (size_t i = 0; i < d; ++i) {
          double diff =
              static_cast<double>(data[rows[r]][cols[i]]) - centroid[k][i];
          dist[k] += diff * diff;
        }
      }
      assign[r] = dist[1] < dist[0] ? 1 : 0;
    }
    for (int k = 0; k < 2; ++k) {
      std::fill(centroid[k].begin(), centroid[k].end(), 0.0);
      size_t count = 0;
      for (size_t r = 0; r < rows.size(); ++r) {
        if (assign[r] != k) continue;
        ++count;
        for (size_t i = 0; i < d; ++i) {
          centroid[k][i] += static_cast<double>(data[rows[r]][cols[i]]);
        }
      }
      if (count > 0) {
        for (double& v : centroid[k]) v /= static_cast<double>(count);
      }
    }
  }
  std::vector<uint32_t> left, right;
  for (size_t r = 0; r < rows.size(); ++r) {
    (assign[r] == 0 ? left : right).push_back(rows[r]);
  }
  if (left.empty() || right.empty()) {
    // Degenerate clustering: fall back to an even split.
    left.assign(rows.begin(), rows.begin() + rows.size() / 2);
    right.assign(rows.begin() + rows.size() / 2, rows.end());
  }
  Node sum;
  sum.kind = Node::Kind::kSum;
  double n = static_cast<double>(rows.size());
  std::vector<int> children = {BuildNode(data, left, cols, rng),
                               BuildNode(data, right, cols, rng)};
  sum.children = std::move(children);
  sum.weights = {static_cast<double>(left.size()) / n,
                 static_cast<double>(right.size()) / n};
  nodes_.push_back(std::move(sum));
  return static_cast<int>(nodes_.size()) - 1;
}

double SpnTableModel::EvalNode(
    int node, const std::vector<std::vector<std::pair<int, double>>*>&
                  overlaps_by_col,
    SpnEvalStats* stats) const {
  const Node& nd = nodes_[node];
  switch (nd.kind) {
    case Node::Kind::kLeaf: {
      if (stats != nullptr) ++stats->leaf_visits;
      const auto* overlap = overlaps_by_col[nd.column];
      if (overlap == nullptr) return 1.0;  // unconstrained column
      double p = 0;
      for (auto [bin, frac] : *overlap) p += nd.histogram[bin] * frac;
      return p;
    }
    case Node::Kind::kProduct: {
      if (stats != nullptr) ++stats->product_visits;
      double p = 1.0;
      for (int c : nd.children) p *= EvalNode(c, overlaps_by_col, stats);
      return p;
    }
    case Node::Kind::kSum: {
      if (stats != nullptr) ++stats->sum_visits;
      double p = 0;
      for (size_t i = 0; i < nd.children.size(); ++i) {
        p += nd.weights[i] * EvalNode(nd.children[i], overlaps_by_col, stats);
      }
      return p;
    }
  }
  return 1.0;
}

double SpnTableModel::Selectivity(const ColumnRanges& ranges,
                                  SpnEvalStats* stats) const {
  static telemetry::Counter& fallback_counter =
      telemetry::MetricsRegistry::Global().counter("ce.spn.uniform_fallback");
  double uniform_factor = 1.0;
  std::vector<std::vector<std::pair<int, double>>> overlaps(ranges.size());
  std::vector<std::vector<std::pair<int, double>>*> by_col(ranges.size(),
                                                           nullptr);
  for (size_t c = 0; c < ranges.size(); ++c) {
    if (!ranges[c].has_value()) continue;
    if (model_index_of_col_[c] < 0) {
      // Key column constrained: uniform fallback over its bin domain.
      fallback_counter.Increment();
      auto ov = binners_[c].Overlap(ranges[c]->first, ranges[c]->second);
      double frac = 0;
      for (auto [bin, f] : ov) frac += f;
      uniform_factor *= std::min(1.0, frac / binners_[c].num_bins());
      if (stats != nullptr) ++stats->uniform_fallbacks;
      continue;
    }
    overlaps[c] = binners_[c].Overlap(ranges[c]->first, ranges[c]->second);
    by_col[c] = &overlaps[c];
  }
  double p = root_ >= 0 ? EvalNode(root_, by_col, stats) : 1.0;
  return std::clamp(p * uniform_factor, 0.0, 1.0);
}

uint64_t SpnTableModel::SizeBytes() const {
  uint64_t bytes = 0;
  for (const Node& n : nodes_) {
    bytes += sizeof(Node) + n.histogram.size() * sizeof(double) +
             n.children.size() * sizeof(int) +
             n.weights.size() * sizeof(double);
  }
  return bytes;
}

double SpnEstimator::EstimateImpl(const query::Query& q,
                                  ExplainRecord* rec) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // The whole estimate is circuit traversal plus the join formula.
  telemetry::StageTimer::Mark("traverse");
  SpnEvalStats total;
  if (rec != nullptr) {
    ExplainPredicates(q, "spn", "uniform_fallback", "spn.key_column_uniform",
                      rec);
  }
  return JoinTables(
      q,
      [&](int t, const ColumnRanges& ranges) {
        return models_[t].Selectivity(ranges,
                                      rec != nullptr ? &total : nullptr);
      },
      rec,
      [&] {
        rec->AddCounter("leaf_visits", static_cast<double>(total.leaf_visits));
        rec->AddCounter("product_visits",
                        static_cast<double>(total.product_visits));
        rec->AddCounter("sum_visits", static_cast<double>(total.sum_visits));
        rec->AddCounter("uniform_fallbacks",
                        static_cast<double>(total.uniform_fallbacks));
      });
}

void SpnEstimator::DescribeModel(telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "spn";
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  uint64_t nodes = 0;
  for (const auto& m : models_) nodes += m.num_nodes();
  // One weight/histogram-cell granularity is noise; node count is the
  // structural capacity of an SPN.
  card->parameter_count = static_cast<int64_t>(nodes);
  card->extra.emplace_back("tables", static_cast<double>(models_.size()));
}

}  // namespace ce
}  // namespace lce
