#include "src/gbdt/gbdt.h"

#include <array>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/telemetry/train_log.h"

#define LCE_GBDT_RESTRICT __restrict__

namespace lce {
namespace gbdt {

namespace {

// Rows per parallel chunk for per-row binning / prediction sweeps. Also the
// block size of the level-synchronous batch traversal: 256 cursors (1 KiB)
// plus their bin rows stay L1-resident across all trees of the ensemble.
constexpr int64_t kRowGrain = 256;

// Binned copies of `rows`, computed in parallel (disjoint writes; Transform
// only reads the fitted binner).
std::vector<std::vector<uint8_t>> BinRows(
    const FeatureBinner& binner, const std::vector<std::vector<float>>& rows) {
  telemetry::ScopedPhase phase("gbdt/bin_rows");
  std::vector<std::vector<uint8_t>> binned(rows.size());
  parallel::ParallelFor(0, static_cast<int64_t>(rows.size()), kRowGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            binned[i] = binner.Transform(rows[i]);
                          }
                        });
  return binned;
}

// Binned rows packed into one contiguous row-major matrix (n x f bytes) so
// the batch traversal's bin loads hit sequential cache lines.
std::vector<uint8_t> PackBins(const std::vector<std::vector<uint8_t>>& binned,
                              int num_features) {
  std::vector<uint8_t> bins(binned.size() * static_cast<size_t>(num_features));
  parallel::ParallelFor(0, static_cast<int64_t>(binned.size()), kRowGrain,
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            std::copy(binned[i].begin(), binned[i].end(),
                                      bins.begin() + i * num_features);
                          }
                        });
  return bins;
}

}  // namespace

void FlatForest::Clear() {
  feat_thr.clear();
  children.clear();
  value.clear();
  root.clear();
  levels.clear();
}

void FlatForest::AppendTree(const RegressionTree& tree) {
  const std::vector<TreeNode>& nodes = tree.nodes();
  LCE_CHECK(!nodes.empty());
  const int32_t base = static_cast<int32_t>(feat_thr.size());
  root.push_back(base);  // tree-local node 0 is the root
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    const int32_t self = base + static_cast<int32_t>(i);
    if (n.is_leaf) {
      // Leaf self-loop: threshold 255 always compares true against uint8
      // bins, so the cursor takes the left child (= itself) on every further
      // level. 255 cannot be a real split threshold: a uint8-binned split at
      // 255 would send every row left and never separate the children.
      feat_thr.push_back(kLeafThreshold);  // feature 0, threshold 255
      children.push_back(self);
      children.push_back(self);
      value.push_back(n.value);
    } else {
      feat_thr.push_back(static_cast<uint32_t>(n.feature) << 8 |
                         n.bin_threshold);
      children.push_back(base + n.left);
      children.push_back(base + n.right);
      value.push_back(0.0f);
    }
  }
  // Max root-to-leaf path length: after this many steps every cursor sits on
  // a leaf (then self-loops). Nodes are created parent-before-child, so one
  // forward pass suffices.
  std::vector<int32_t> depth(nodes.size(), 0);
  int32_t max_depth = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].is_leaf) continue;
    depth[nodes[i].left] = depth[i] + 1;
    depth[nodes[i].right] = depth[i] + 1;
    max_depth = std::max(max_depth,
                         std::max(depth[nodes[i].left], depth[nodes[i].right]));
  }
  levels.push_back(max_depth);
}

void FlatForest::Accumulate(const uint8_t* bins, int num_features, int64_t r0,
                            int64_t r1, size_t t0, size_t t1, float lr,
                            float* out) const {
  constexpr int kBlock = static_cast<int>(kRowGrain);
  std::array<int32_t, kBlock> cursor;
  const uint32_t* LCE_GBDT_RESTRICT desc = feat_thr.data();
  const int32_t* LCE_GBDT_RESTRICT child = children.data();
  const float* LCE_GBDT_RESTRICT val = value.data();
  for (int64_t b = r0; b < r1; b += kBlock) {
    const int n = static_cast<int>(std::min<int64_t>(kBlock, r1 - b));
    const uint8_t* LCE_GBDT_RESTRICT block_bins = bins + b * num_features;
    // Trees inner: the block's bin rows stay cached across the whole
    // ensemble, and out[row] still accumulates trees in ensemble order —
    // the same float addition sequence as per-row Predict().
    for (size_t t = t0; t < t1; ++t) {
      const int32_t tree_root = root[t];
      for (int r = 0; r < n; ++r) cursor[r] = tree_root;
      for (int32_t level = 0; level < levels[t]; ++level) {
        // Level-synchronous step: all rows cross one level together. Rows
        // are independent, so the node loads pipeline instead of
        // serializing on one row's pointer chase; leaves self-loop (see
        // AppendTree). Each step reads one packed descriptor and one
        // children pair — two node cache lines.
        uint32_t alive = 0;
        for (int r = 0; r < n; ++r) {
          const int32_t node = cursor[r];
          const uint32_t d = desc[node];
          const uint32_t thr = d & 0xffu;
          alive |= thr ^ kLeafThreshold;  // nonzero while any row is internal
          const uint8_t bin =
              block_bins[static_cast<int64_t>(r) * num_features + (d >> 8)];
          cursor[r] = child[2 * node + (bin > thr ? 1 : 0)];
        }
        // Unbalanced trees park most cursors on shallow leaves well before
        // levels[t]; once the whole block is parked the remaining levels
        // are self-loop no-ops, so stop.
        if (alive == 0) break;
      }
      const int64_t off = b - r0;
      for (int r = 0; r < n; ++r) out[off + r] += lr * val[cursor[r]];
    }
  }
}

void GradientBoosting::Fit(const std::vector<std::vector<float>>& rows,
                           const std::vector<float>& targets) {
  LCE_CHECK(!rows.empty() && rows.size() == targets.size());
  trees_.clear();
  flat_.Clear();
  binner_.Fit(rows, options_.max_bins);
  double sum = 0;
  for (float t : targets) sum += t;
  base_score_ = static_cast<float>(sum / static_cast<double>(targets.size()));
  fitted_ = true;

  AddTrees(BinRows(binner_, rows), targets, options_.num_trees);
}

void GradientBoosting::Boost(const std::vector<std::vector<float>>& rows,
                             const std::vector<float>& targets,
                             int num_trees) {
  LCE_CHECK_MSG(fitted_, "Fit() before Boost()");
  LCE_CHECK(!rows.empty() && rows.size() == targets.size());
  AddTrees(BinRows(binner_, rows), targets, num_trees);
}

void GradientBoosting::AddTrees(
    const std::vector<std::vector<uint8_t>>& binned,
    const std::vector<float>& targets, int num_trees) {
  // Current predictions for the (possibly new) data under the ensemble.
  // Each row's prediction is independent and sums the trees in ensemble
  // order, so the row-parallel replay matches the sequential one exactly —
  // and the batched FlatForest replay keeps that same per-row order, so
  // training is bit-identical across LCE_SIMD settings too.
  const int64_t n = static_cast<int64_t>(binned.size());
  const int num_features = binned.empty() ? 0 : static_cast<int>(binned[0].size());
  const bool batch = simd::SimdEnabled() && num_features > 0;
  const std::vector<uint8_t> bins =
      batch ? PackBins(binned, num_features) : std::vector<uint8_t>();
  std::vector<float> pred(binned.size(), base_score_);
  parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
    if (batch) {
      flat_.Accumulate(bins.data(), num_features, b, e, 0, flat_.num_trees(),
                       options_.learning_rate, pred.data() + b);
      return;
    }
    for (int64_t i = b; i < e; ++i) {
      for (const RegressionTree& tree : trees_) {
        pred[i] += options_.learning_rate * tree.Predict(binned[i]);
      }
    }
  });
  std::vector<float> residual(binned.size());
  const bool train_log = telemetry::TrainLogEnabled();
  const int64_t round_base = static_cast<int64_t>(trees_.size());
  for (int t = 0; t < num_trees; ++t) {
    int64_t round_start = train_log ? telemetry::MonotonicNanos() : 0;
    for (size_t i = 0; i < binned.size(); ++i) {
      residual[i] = targets[i] - pred[i];
    }
    RegressionTree tree;
    {
      telemetry::ScopedPhase phase("gbdt/tree_fit");
      tree.Fit(binned, residual, options_.tree, options_.max_bins);
    }
    flat_.AppendTree(tree);
    {
      telemetry::ScopedPhase phase("gbdt/update_pred");
      parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
        if (batch) {
          // Only the just-appended tree.
          flat_.Accumulate(bins.data(), num_features, b, e,
                           flat_.num_trees() - 1, flat_.num_trees(),
                           options_.learning_rate, pred.data() + b);
          return;
        }
        for (int64_t i = b; i < e; ++i) {
          pred[i] += options_.learning_rate * tree.Predict(binned[i]);
        }
      });
    }
    size_t tree_nodes = tree.num_nodes();
    trees_.push_back(std::move(tree));
    if (train_log) {
      // Post-round training MSE; read-only over pred/targets, so enabling
      // the log cannot perturb the fit.
      double mse = 0;
      for (size_t i = 0; i < binned.size(); ++i) {
        double d = static_cast<double>(targets[i]) - pred[i];
        mse += d * d;
      }
      telemetry::TrainingEvent ev;
      ev.family = "gbdt";
      ev.event = "round";
      ev.index = round_base + t;
      ev.loss = binned.empty() ? 0.0 : mse / static_cast<double>(n);
      ev.learning_rate = options_.learning_rate;
      ev.examples = n;
      ev.wall_seconds =
          static_cast<double>(telemetry::MonotonicNanos() - round_start) / 1e9;
      ev.extra.emplace_back("tree_nodes", static_cast<double>(tree_nodes));
      telemetry::RecordTrainingEvent(std::move(ev));
    }
  }
}

float GradientBoosting::Predict(const std::vector<float>& row,
                                PredictStats* stats) const {
  LCE_CHECK_MSG(fitted_, "Fit() before Predict()");
  std::vector<uint8_t> binned = binner_.Transform(row);
  float out = base_score_;
  PredictStats s;
  for (const RegressionTree& tree : trees_) {
    int depth = 0;
    out += options_.learning_rate * tree.Predict(binned, &depth);
    s.nodes_visited += static_cast<uint64_t>(depth);
    s.max_path_depth = std::max(s.max_path_depth, depth);
  }
  if (stats != nullptr) {
    s.trees = static_cast<int>(trees_.size());
    s.mean_path_depth =
        s.trees > 0 ? static_cast<double>(s.nodes_visited) / s.trees : 0.0;
    *stats = s;
  }
  return out;
}

std::vector<float> GradientBoosting::PredictBatch(
    const std::vector<std::vector<float>>& rows) const {
  LCE_CHECK_MSG(fitted_, "Fit() before PredictBatch()");
  // Kernel span for the profiler: the batched SoA forest traversal is the
  // GBDT inference hot path. Work ≈ node visits (rows × trees × depth),
  // thresholded so single-row per-query calls don't pay span overhead on a
  // microsecond traversal.
  telemetry::KernelSpan span(
      "FlatForest::PredictBatch",
      static_cast<int64_t>(rows.size()) * static_cast<int64_t>(num_trees()) *
          options_.tree.max_depth);
  std::vector<float> out(rows.size(), base_score_);
  if (rows.empty()) return out;
  const int64_t n = static_cast<int64_t>(rows.size());
  if (!simd::SimdEnabled()) {
    parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) out[i] = Predict(rows[i]);
    });
    return out;
  }
  // Bin every row into one contiguous matrix, then traverse the SoA forest
  // level-synchronously over row blocks. Per row the accumulation order is
  // base + lr*tree0 + lr*tree1 + ... — identical to Predict().
  const int num_features = static_cast<int>(rows[0].size());
  std::vector<uint8_t> bins(rows.size() * static_cast<size_t>(num_features));
  parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      std::vector<uint8_t> binned = binner_.Transform(rows[i]);
      std::copy(binned.begin(), binned.end(), bins.begin() + i * num_features);
    }
  });
  parallel::ParallelFor(0, n, kRowGrain, [&](int64_t b, int64_t e) {
    flat_.Accumulate(bins.data(), num_features, b, e, 0, flat_.num_trees(),
                     options_.learning_rate, out.data() + b);
  });
  return out;
}

uint64_t GradientBoosting::NumNodes() const {
  uint64_t nodes = 0;
  for (const RegressionTree& tree : trees_) nodes += tree.num_nodes();
  return nodes;
}

uint64_t GradientBoosting::SizeBytes() const {
  uint64_t bytes = 0;
  for (const RegressionTree& tree : trees_) {
    bytes += tree.num_nodes() * sizeof(TreeNode);
  }
  // SoA inference mirror: packed descriptor (uint32), children pair
  // (2x int32), value (float) per node, plus root/levels (int32) per tree.
  bytes += flat_.num_nodes() *
               (sizeof(uint32_t) + 2 * sizeof(int32_t) + sizeof(float)) +
           flat_.num_trees() * 2 * sizeof(int32_t);
  // Binner edges.
  bytes += static_cast<uint64_t>(binner_.num_features()) *
           binner_.max_bins() * sizeof(float);
  return bytes;
}

}  // namespace gbdt
}  // namespace lce
