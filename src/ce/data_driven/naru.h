// Naru-style deep autoregressive estimator (Yang et al., adapted).
//
// Per table, the joint distribution over discretized non-key columns is
// factorized autoregressively: P(x) = prod_i P(x_i | x_<i>). Each conditional
// is a small MLP over the one-hot prefix (the first column keeps its exact
// empirical marginal). Range queries are answered with progressive sampling,
// Naru's inference algorithm. Joins use the distinct-count combination (see
// join_formula.h); DESIGN.md documents this substitution for the full
// fanout-based join support of NeuroCard.

#ifndef LCE_CE_DATA_DRIVEN_NARU_H_
#define LCE_CE_DATA_DRIVEN_NARU_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/data_driven/binning.h"
#include "src/ce/data_driven/per_table.h"
#include "src/nn/mlp.h"
#include "src/util/rng.h"

namespace lce {
namespace ce {

/// Statistics of one progressive-sampling Selectivity call: the sampling
/// budget spent and how many paths died on zero range mass.
struct NaruSamplingStats {
  int num_samples = 0;
  int zero_weight_paths = 0;
  int sampled_columns = 0;  // modeled columns visited per path (last + 1)
};

/// Autoregressive model of one table.
class NaruTableModel {
 public:
  struct Options {
    int max_bins = 64;
    int hidden_dim = 32;
    int epochs = 6;
    int batch_size = 64;
    float learning_rate = 2e-3f;
    uint64_t max_training_rows = 6000;
    int num_samples = 64;  // progressive-sampling paths
    /// Join combination: measured per-edge selectivities instead of the
    /// distinct-count formula (the R19 ablation knob).
    bool use_edge_selectivity = false;
    /// Rescales each join edge by the predicate-conditioned mean fanout
    /// (FanoutCorrection) — the fix for predicate-fanout correlation.
    bool use_fanout_correction = false;
  };

  /// Fits on `table`; models all non-key columns in schema order.
  void Fit(const storage::Table& table, const Options& options, Rng* rng);

  /// P(lo_c <= col_c <= hi_c for all constrained c). `ranges` is indexed by
  /// table-local column; unconstrained columns are nullopt. Uses progressive
  /// sampling with options.num_samples paths. `stats`, when non-null, counts
  /// sampling-budget spend and zero-mass paths without drawing any extra
  /// randomness, so `rng` advances exactly as in the plain call.
  double Selectivity(const ColumnRanges& ranges, Rng* rng,
                     NaruSamplingStats* stats = nullptr) const;

  /// True when table-local column `c` is modeled (non-key). Constraints on
  /// unmodeled columns are silently ignored by Selectivity.
  bool ModelsColumn(int c) const {
    return std::find(modeled_cols_.begin(), modeled_cols_.end(), c) !=
           modeled_cols_.end();
  }

  uint64_t SizeBytes() const;

  /// Learned scalars: marginal entries plus conditional-MLP weights.
  uint64_t NumParameters() const;

 private:
  /// Conditional distribution of modeled column `i` given the sampled prefix
  /// (bin ids of modeled columns 0..i-1). Returns a probability vector.
  std::vector<float> Conditional(int i, const std::vector<int>& prefix) const;

  Options options_;
  std::vector<int> modeled_cols_;       // table-local indexes of modeled cols
  std::vector<ColumnBinner> binners_;   // per table column (all columns)
  std::vector<double> marginal0_;       // empirical marginal of first modeled
  std::vector<std::unique_ptr<nn::Mlp>> conditionals_;  // for i >= 1
  std::vector<int> prefix_offset_;      // one-hot offset of modeled col i
  int prefix_dim_total_ = 0;
};

class NaruEstimator : public PerTableEstimator<NaruTableModel> {
 public:
  NaruEstimator() : NaruEstimator(NaruTableModel::Options{}) {}
  explicit NaruEstimator(NaruTableModel::Options options, uint64_t seed = 97)
      : PerTableEstimator(options, seed) {}

  std::string Name() const override { return "Naru"; }
  void DescribeModel(telemetry::ModelCard* card) const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_DATA_DRIVEN_NARU_H_
