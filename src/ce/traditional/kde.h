// Kernel-density estimator (Heimel et al. style): a Gaussian KDE over a
// uniform row sample per table, with Scott's-rule bandwidths. Smoother than
// sampling on sparse regions, still per-table (joins via distinct counts).

#ifndef LCE_CE_TRADITIONAL_KDE_H_
#define LCE_CE_TRADITIONAL_KDE_H_

#include <vector>

#include "src/ce/estimator.h"

namespace lce {
namespace ce {

class KdeEstimator : public Estimator {
 public:
  struct Options {
    uint64_t sample_rows = 2048;
    uint64_t seed = 29;
  };

  KdeEstimator() : KdeEstimator(Options{}) {}
  explicit KdeEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "KDE"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  struct TableKde {
    // sample[column][i]: the i-th sampled row's value in `column`.
    std::vector<std::vector<double>> sample;
    std::vector<double> bandwidth;  // per column (Scott's rule)
    double rows = 0;
  };

  double TableSelectivity(const query::Query& q, int table) const;

  Options options_;
  const storage::DatabaseSchema* schema_ = nullptr;
  std::vector<TableKde> tables_;
  std::vector<std::vector<uint64_t>> distinct_;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_TRADITIONAL_KDE_H_
