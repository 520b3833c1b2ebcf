// Sum-product network estimator (DeepDB-style, Hilprecht et al.).
//
// Structure learning follows the LearnSPN recipe: product nodes split columns
// into (approximately) independent groups via a correlation test; sum nodes
// split rows with 2-means clustering; leaves hold smoothed per-column bin
// histograms. Range probabilities are evaluated bottom-up. Joins use the
// distinct-count combination (DESIGN.md documents the substitution for
// DeepDB's fanout-annotated join SPNs).

#ifndef LCE_CE_DATA_DRIVEN_SPN_H_
#define LCE_CE_DATA_DRIVEN_SPN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ce/data_driven/binning.h"
#include "src/ce/data_driven/per_table.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

/// Evaluation statistics of SpnTableModel::Selectivity calls: node visits
/// by kind plus the uniform fallbacks taken for constrained key columns.
struct SpnEvalStats {
  uint64_t leaf_visits = 0;
  uint64_t product_visits = 0;
  uint64_t sum_visits = 0;
  int uniform_fallbacks = 0;
};

class SpnTableModel {
 public:
  struct Options {
    int max_bins = 64;
    uint64_t max_training_rows = 8000;
    size_t min_rows_split = 400;
    double corr_threshold = 0.3;
    int kmeans_iters = 8;
    /// Join combination: measured per-edge selectivities instead of the
    /// distinct-count formula (the R19 ablation knob).
    bool use_edge_selectivity = false;
    /// Rescales each join edge by the predicate-conditioned mean fanout
    /// (FanoutCorrection) — the fix for predicate-fanout correlation.
    bool use_fanout_correction = false;
  };

  void Fit(const storage::Table& table, const Options& options, Rng* rng);

  /// P(conjunction of ranges) over modeled (non-key) columns; unmodeled
  /// constrained columns contribute a uniform factor. `stats`, when non-null,
  /// accumulates node-visit counts and fallback totals; collecting them
  /// never changes the returned probability.
  double Selectivity(const ColumnRanges& ranges,
                     SpnEvalStats* stats = nullptr) const;

  /// True when table-local column `c` is covered by the SPN (non-key);
  /// constrained unmodeled columns take the uniform fallback.
  bool ModelsColumn(int c) const {
    return c >= 0 && c < static_cast<int>(model_index_of_col_.size()) &&
           model_index_of_col_[c] >= 0;
  }

  uint64_t SizeBytes() const;
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    enum class Kind { kSum, kProduct, kLeaf } kind = Kind::kLeaf;
    std::vector<int> children;
    std::vector<double> weights;    // sum nodes, parallel to children
    int column = -1;                // leaf: table-local column index
    std::vector<double> histogram;  // leaf: smoothed bin probabilities
  };

  int BuildNode(const std::vector<std::vector<int>>& data,
                const std::vector<uint32_t>& rows,
                const std::vector<int>& cols, Rng* rng);
  int MakeLeaf(const std::vector<std::vector<int>>& data,
               const std::vector<uint32_t>& rows, int col);
  double EvalNode(int node,
                  const std::vector<std::vector<std::pair<int, double>>*>&
                      overlaps_by_col,
                  SpnEvalStats* stats) const;

  Options options_;
  std::vector<ColumnBinner> binners_;
  std::vector<int> modeled_cols_;
  std::vector<int> model_index_of_col_;  // table col -> modeled index or -1
  std::vector<Node> nodes_;
  int root_ = -1;
};

class SpnEstimator : public PerTableEstimator<SpnTableModel> {
 public:
  SpnEstimator() : SpnEstimator(SpnTableModel::Options{}) {}
  explicit SpnEstimator(SpnTableModel::Options options, uint64_t seed = 131)
      : PerTableEstimator(options, seed) {}

  std::string Name() const override { return "DeepDB-SPN"; }
  void DescribeModel(telemetry::ModelCard* card) const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_DATA_DRIVEN_SPN_H_
