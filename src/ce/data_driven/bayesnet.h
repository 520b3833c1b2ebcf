// Tree-shaped Bayesian network estimator (BayesCard-style).
//
// Structure: Chow–Liu maximum-spanning tree on pairwise mutual information
// over binned columns. Parameters: smoothed CPTs P(child | parent). Range
// queries are answered exactly on the tree by message passing with
// per-column coverage indicators.

#ifndef LCE_CE_DATA_DRIVEN_BAYESNET_H_
#define LCE_CE_DATA_DRIVEN_BAYESNET_H_

#include <string>
#include <vector>

#include "src/ce/data_driven/binning.h"
#include "src/ce/data_driven/per_table.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

class BayesNetTableModel {
 public:
  struct Options {
    int max_bins = 48;
    uint64_t max_training_rows = 8000;
    /// Join combination: measured per-edge selectivities instead of the
    /// distinct-count formula (the R19 ablation knob).
    bool use_edge_selectivity = false;
    /// Rescales each join edge by the predicate-conditioned mean fanout
    /// (FanoutCorrection) — the fix for predicate-fanout correlation.
    bool use_fanout_correction = false;
  };

  void Fit(const storage::Table& table, const Options& options, Rng* rng);

  double Selectivity(const ColumnRanges& ranges) const;

  /// True when table-local column `c` is covered by the network (non-key);
  /// constrained unmodeled columns take the uniform fallback.
  bool ModelsColumn(int c) const {
    return c >= 0 && c < static_cast<int>(model_index_of_col_.size()) &&
           model_index_of_col_[c] >= 0;
  }

  uint64_t SizeBytes() const;

  /// Learned probabilities: root-prior entries plus CPT cells.
  uint64_t NumParameters() const;

 private:
  /// Upward message of `node`: for each of its bins, P(subtree indicators,
  /// node = bin | ...) excluding the link to its parent.
  std::vector<double> Message(
      int node,
      const std::vector<std::vector<double>>& indicators) const;

  Options options_;
  std::vector<ColumnBinner> binners_;
  std::vector<int> modeled_cols_;
  std::vector<int> model_index_of_col_;
  // Tree structure over modeled columns.
  int root_ = -1;
  std::vector<int> parent_;                    // -1 for root
  std::vector<std::vector<int>> children_;
  std::vector<std::vector<double>> prior_;     // root: P(bin); others unused
  // cpt_[i][parent_bin][child_bin] = P(i = child_bin | parent = parent_bin)
  std::vector<std::vector<std::vector<double>>> cpt_;
};

class BayesNetEstimator : public PerTableEstimator<BayesNetTableModel> {
 public:
  BayesNetEstimator() : BayesNetEstimator(BayesNetTableModel::Options{}) {}
  explicit BayesNetEstimator(BayesNetTableModel::Options options,
                             uint64_t seed = 173)
      : PerTableEstimator(options, seed) {}

  std::string Name() const override { return "BayesNet"; }
  void DescribeModel(telemetry::ModelCard* card) const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_DATA_DRIVEN_BAYESNET_H_
