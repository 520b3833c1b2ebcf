// Gradient boosting with squared loss over binned regression trees.

#ifndef LCE_GBDT_GBDT_H_
#define LCE_GBDT_GBDT_H_

#include <cstdint>
#include <vector>

#include "src/gbdt/tree.h"

namespace lce {
namespace gbdt {

/// Structure-of-arrays mirror of an ensemble's trees for batched inference.
/// Node fields live in parallel arrays sized for the traversal's access
/// pattern: the split descriptor packs feature id and bin threshold into one
/// 32-bit word (feat_thr) and both child ids sit in one contiguous pair
/// (children), so stepping a cursor down one level touches exactly two node
/// cache lines instead of the four a naive field-per-array split (or the
/// 24-byte AoS TreeNode) costs. Leaves are encoded as self-loops
/// (children == {self, self}, threshold == 255) so the level-synchronous
/// batch traversal needs no is_leaf branch — bins are uint8, so `bin <= 255`
/// always holds and a cursor that reaches a leaf stays put for the remaining
/// levels.
///
/// Accumulate() applies trees in ensemble order with one float accumulator
/// per row — the exact accumulation order of per-row Predict(), so batched
/// and scalar inference are bit-identical.
struct FlatForest {
  /// Threshold value marking a leaf's self-loop descriptor.
  static constexpr uint32_t kLeafThreshold = 255;

  /// feature << 8 | threshold. Go left iff bin <= threshold (low byte).
  std::vector<uint32_t> feat_thr;
  /// children[2 * node + 0] = left, [.. + 1] = right; both = node for leaves.
  std::vector<int32_t> children;
  std::vector<float> value;  // leaf prediction; 0 for internal nodes

  std::vector<int32_t> root;    // per tree: root node id
  std::vector<int32_t> levels;  // per tree: max root-to-leaf path length

  size_t num_trees() const { return root.size(); }
  size_t num_nodes() const { return feat_thr.size(); }
  void Clear();

  /// Appends one fitted tree's nodes (ensemble order = call order).
  void AppendTree(const RegressionTree& tree);

  /// out[i - r0] += lr * tree_value for every tree in [t0, t1) and row i in
  /// [r0, r1); bins is the row-major num_features-wide bin matrix. Rows
  /// advance through each tree level-synchronously in blocks.
  void Accumulate(const uint8_t* bins, int num_features, int64_t r0,
                  int64_t r1, size_t t0, size_t t1, float lr,
                  float* out) const;
};

class GradientBoosting {
 public:
  struct Options {
    int num_trees = 96;
    float learning_rate = 0.15f;
    int max_bins = 32;
    RegressionTree::Options tree;
  };

  GradientBoosting() : GradientBoosting(Options{}) {}
  explicit GradientBoosting(Options options) : options_(options) {}

  /// Fits from scratch: bins features, then adds trees on residuals.
  void Fit(const std::vector<std::vector<float>>& rows,
           const std::vector<float>& targets);

  /// Adds `num_trees` boosting rounds fit on new data's residuals, keeping
  /// the existing ensemble and binner — the incremental-update path.
  void Boost(const std::vector<std::vector<float>>& rows,
             const std::vector<float>& targets, int num_trees);

  /// Traversal statistics of one Predict() call; fuels explain records.
  struct PredictStats {
    int trees = 0;
    uint64_t nodes_visited = 0;    // internal nodes crossed (sum of depths)
    double mean_path_depth = 0;
    int max_path_depth = 0;
  };

  /// The ensemble's prediction for `row`; `stats`, when non-null, receives
  /// its per-tree path statistics without changing the prediction.
  float Predict(const std::vector<float>& row,
                PredictStats* stats = nullptr) const;

  /// Predictions for many rows at once. With LCE_SIMD on (default) this bins
  /// all rows into one contiguous matrix and runs the level-synchronous
  /// FlatForest traversal in parallel row blocks; otherwise it falls back to
  /// per-row Predict(). Both paths are bit-identical to calling Predict() on
  /// each row (same per-row accumulation order) at any thread count.
  std::vector<float> PredictBatch(
      const std::vector<std::vector<float>>& rows) const;

  size_t num_trees() const { return trees_.size(); }
  uint64_t SizeBytes() const;
  /// Total tree nodes across the ensemble — the model-card parameter count
  /// (each node carries a split threshold or a leaf value).
  uint64_t NumNodes() const;
  bool fitted() const { return fitted_; }

 private:
  void AddTrees(const std::vector<std::vector<uint8_t>>& binned,
                const std::vector<float>& targets, int num_trees);

  Options options_;
  FeatureBinner binner_;
  float base_score_ = 0;
  std::vector<RegressionTree> trees_;
  FlatForest flat_;  // SoA mirror of trees_, maintained by AddTrees
  bool fitted_ = false;
};

}  // namespace gbdt
}  // namespace lce

#endif  // LCE_GBDT_GBDT_H_
