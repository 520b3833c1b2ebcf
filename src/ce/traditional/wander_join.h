// Wander Join estimator (Li et al., SIGMOD 2016): online aggregation via
// random walks along join-key hash indexes. Each walk picks a uniform row of
// the first table, then follows matching rows through the query's join tree;
// the product of fanouts is an unbiased estimate of the join count. The only
// join-aware sampling estimator in the zoo — strong on joins where
// independent per-table samples miss.

#ifndef LCE_CE_TRADITIONAL_WANDER_JOIN_H_
#define LCE_CE_TRADITIONAL_WANDER_JOIN_H_

#include <map>
#include <vector>

#include "src/ce/estimator.h"
#include "src/exec/hash_index.h"

namespace lce {
namespace ce {

class WanderJoinEstimator : public Estimator {
 public:
  struct Options {
    int num_walks = 600;
    uint64_t seed = 37;  // each query's walk stream derives from it
  };

  WanderJoinEstimator() : WanderJoinEstimator(Options{}) {}
  explicit WanderJoinEstimator(Options options) : options_(options) {}

  std::string Name() const override { return "WanderJoin"; }

  /// Builds hash indexes on every join-key column. NOTE: unlike the other
  /// estimators, Wander Join walks the *live* data, so `db` must outlive the
  /// estimator (it is an online method by design).
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  bool RowPasses(const query::Query& q, int table, uint32_t row) const;

  Options options_;
  const storage::Database* db_ = nullptr;
  // (table, column) -> index over that join-key column.
  std::map<std::pair<int, int>, exec::HashIndex> indexes_;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_TRADITIONAL_WANDER_JOIN_H_
