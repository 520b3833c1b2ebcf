#include "src/gbdt/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace gbdt {

void FeatureBinner::Fit(const std::vector<std::vector<float>>& rows,
                        int max_bins) {
  LCE_CHECK(!rows.empty());
  LCE_CHECK(max_bins >= 2 && max_bins <= 256);
  telemetry::ScopedPhase phase("gbdt/binner_fit");
  max_bins_ = max_bins;
  size_t d = rows[0].size();
  edges_.assign(d, {});
  // Features are independent (disjoint edges_[f] writes), so the quantile
  // sorts run in parallel chunks with a per-chunk column buffer. One lane
  // processes all features in one chunk (one buffer, like the old loop).
  int64_t fit_grain =
      parallel::ThreadCount() <= 1 ? static_cast<int64_t>(d) : 1;
  parallel::ParallelFor(
      0, static_cast<int64_t>(d), fit_grain, [&](int64_t f0, int64_t f1) {
        std::vector<float> column(rows.size());
        for (int64_t f = f0; f < f1; ++f) {
          for (size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][f];
          std::sort(column.begin(), column.end());
          std::vector<float>& edges = edges_[f];
          for (int b = 1; b <= max_bins; ++b) {
            size_t idx =
                std::min(rows.size() - 1,
                         rows.size() * static_cast<size_t>(b) / max_bins);
            float edge = b == max_bins ? std::numeric_limits<float>::infinity()
                                       : column[idx];
            edges.push_back(edge);
          }
          // Deduplicate plateau edges so empty bins collapse.
          for (size_t i = 1; i < edges.size(); ++i) {
            if (edges[i] < edges[i - 1]) edges[i] = edges[i - 1];
          }
        }
      });
}

std::vector<uint8_t> FeatureBinner::Transform(
    const std::vector<float>& row) const {
  LCE_CHECK(row.size() == edges_.size());
  std::vector<uint8_t> out(row.size());
  for (size_t f = 0; f < row.size(); ++f) {
    const std::vector<float>& edges = edges_[f];
    // First bin whose upper edge covers the value.
    auto it = std::lower_bound(edges.begin(), edges.end(), row[f]);
    size_t bin = static_cast<size_t>(it - edges.begin());
    if (bin >= edges.size()) bin = edges.size() - 1;
    out[f] = static_cast<uint8_t>(bin);
  }
  return out;
}

void RegressionTree::Fit(const std::vector<std::vector<uint8_t>>& binned,
                         const std::vector<float>& targets,
                         const Options& options, int max_bins) {
  LCE_CHECK(binned.size() == targets.size());
  LCE_CHECK(!binned.empty());
  nodes_.clear();
  std::vector<uint32_t> rows(binned.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  BuildNode(binned, targets, rows, 0, options, max_bins);
}

int RegressionTree::BuildNode(const std::vector<std::vector<uint8_t>>& binned,
                              const std::vector<float>& targets,
                              const std::vector<uint32_t>& rows, int depth,
                              const Options& options, int max_bins) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{});

  double sum = 0;
  for (uint32_t r : rows) sum += targets[r];
  double n = static_cast<double>(rows.size());
  float mean = static_cast<float>(sum / n);
  nodes_[node_id].value = mean;

  if (depth >= options.max_depth ||
      rows.size() < 2 * static_cast<size_t>(options.min_samples_leaf)) {
    return node_id;
  }

  // Best split: maximize SSE reduction = sumL^2/nL + sumR^2/nR - sum^2/n.
  // Features scan in parallel chunks; chunk winners are combined in feature
  // order with the same strict-greater rule as the sequential loop, so the
  // chosen split (including tie-breaks toward the lowest feature/bin) is
  // identical at any thread count.
  size_t d = binned[0].size();
  double parent_score = sum * sum / n;

  struct SplitCandidate {
    double gain;
    int feature;
    int bin;
  };
  const SplitCandidate no_split{options.min_gain, -1, -1};
  // One lane scans all features in a single chunk (one scratch histogram,
  // like the old loop); otherwise aim for >= 16k row-bin increments per
  // chunk so small nodes stay inline.
  int64_t grain =
      parallel::ThreadCount() <= 1
          ? static_cast<int64_t>(d)
          : std::max<int64_t>(1, (16 << 10) / static_cast<int64_t>(
                                                  std::max<size_t>(
                                                      1, rows.size())));
  // Scoped to the reduce only, so the recursive child builds below do not
  // double-count into gbdt/split_search.
  std::optional<telemetry::ScopedPhase> phase;
  phase.emplace("gbdt/split_search");
  SplitCandidate best = parallel::ParallelReduce<SplitCandidate>(
      0, static_cast<int64_t>(d), grain, no_split,
      [&](int64_t f0, int64_t f1) {
        SplitCandidate local{options.min_gain, -1, -1};
        std::vector<double> bin_sum(max_bins);
        std::vector<uint32_t> bin_count(max_bins);
        for (int64_t f = f0; f < f1; ++f) {
          std::fill(bin_sum.begin(), bin_sum.end(), 0.0);
          std::fill(bin_count.begin(), bin_count.end(), 0u);
          for (uint32_t r : rows) {
            uint8_t b = binned[r][f];
            bin_sum[b] += targets[r];
            ++bin_count[b];
          }
          double left_sum = 0;
          uint32_t left_count = 0;
          for (int b = 0; b < max_bins - 1; ++b) {
            left_sum += bin_sum[b];
            left_count += bin_count[b];
            uint32_t right_count =
                static_cast<uint32_t>(rows.size()) - left_count;
            if (left_count < static_cast<uint32_t>(options.min_samples_leaf) ||
                right_count < static_cast<uint32_t>(options.min_samples_leaf)) {
              continue;
            }
            double right_sum = sum - left_sum;
            double gain = left_sum * left_sum / left_count +
                          right_sum * right_sum / right_count - parent_score;
            if (gain > local.gain) {
              local = {gain, static_cast<int>(f), b};
            }
          }
        }
        return local;
      },
      [](SplitCandidate acc, SplitCandidate chunk) {
        return chunk.gain > acc.gain ? chunk : acc;
      });
  phase.reset();
  int best_feature = best.feature;
  int best_bin = best.bin;

  if (best_feature < 0) return node_id;

  std::vector<uint32_t> left_rows, right_rows;
  for (uint32_t r : rows) {
    if (binned[r][best_feature] <= best_bin) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  nodes_[node_id].is_leaf = false;
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].bin_threshold = static_cast<uint8_t>(best_bin);
  int left =
      BuildNode(binned, targets, left_rows, depth + 1, options, max_bins);
  int right =
      BuildNode(binned, targets, right_rows, depth + 1, options, max_bins);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

float RegressionTree::Predict(const std::vector<uint8_t>& binned_row,
                              int* depth) const {
  LCE_CHECK(!nodes_.empty());
  int cur = 0;
  int d = 0;
  while (!nodes_[cur].is_leaf) {
    const TreeNode& node = nodes_[cur];
    cur = binned_row[node.feature] <= node.bin_threshold ? node.left
                                                         : node.right;
    ++d;
  }
  if (depth != nullptr) *depth = d;
  return nodes_[cur].value;
}

}  // namespace gbdt
}  // namespace lce
