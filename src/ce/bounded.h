// Bound-corrected estimator: wraps a (learned) estimator and clamps its
// estimates into a multiplicative envelope around a cheap reference
// estimator. A standard robustness device: the wrapped model keeps its
// accuracy in-distribution while its worst case is bounded by
// K * reference-error, taming the catastrophic tails learned models show on
// out-of-distribution queries (experiments R8/R14).

#ifndef LCE_CE_BOUNDED_H_
#define LCE_CE_BOUNDED_H_

#include <memory>
#include <string>

#include "src/ce/estimator.h"

namespace lce {
namespace ce {

class BoundedEstimator : public Estimator {
 public:
  /// Estimates from `inner` are clamped to
  /// [reference / envelope, reference * envelope].
  BoundedEstimator(std::unique_ptr<Estimator> inner,
                   std::unique_ptr<Estimator> reference, double envelope);

  std::string Name() const override;
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override;
  Status UpdateWithQueries(
      const std::vector<query::LabeledQuery>& queries) override;
  Status UpdateWithData(const storage::Database& db) override;
  uint64_t SizeBytes() const override;

  Estimator* inner() { return inner_.get(); }
  Estimator* reference() { return reference_.get(); }

 protected:
  double EstimateImpl(const query::Query& q, ExplainRecord* rec) const override;

 private:
  std::unique_ptr<Estimator> inner_;
  std::unique_ptr<Estimator> reference_;
  double envelope_;
};

}  // namespace ce
}  // namespace lce

#endif  // LCE_CE_BOUNDED_H_
