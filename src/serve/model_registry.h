// Named, versioned estimator registry for the estimation service.
//
// The registry maps each name to the current build of that model, a
// shared_ptr<const ModelEntry> guarded by one mutex: Register() on an
// existing name publishes a new entry with a bumped version, while requests
// that already copied the previous entry keep estimating against it until
// their batch drains — no estimator is destroyed while a flush still uses
// it. Get() holds the mutex only to copy the pointer (one map lookup and a
// reference-count increment), once per flush.
//
// The registry stores models only; per-model runtime state (request
// counters, the micro-batcher) lives in serve::EstimationService.

#ifndef LCE_SERVE_MODEL_REGISTRY_H_
#define LCE_SERVE_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/ce/estimator.h"

namespace lce {
namespace serve {

/// One published build of a model. Immutable after Register(); readers hold
/// it via shared_ptr so a concurrent re-register never invalidates it.
struct ModelEntry {
  std::string name;
  uint64_t version = 0;  // 1 on first Register, +1 per swap
  std::shared_ptr<ce::Estimator> estimator;
};

class ModelRegistry {
 public:
  /// Publishes `estimator` as the current build of `name`, creating the slot
  /// on first use. Returns the new version (1, 2, ...). The estimator must
  /// already be Build()-complete; the registry never trains.
  uint64_t Register(const std::string& name,
                    std::shared_ptr<ce::Estimator> estimator);

  /// Current entry for `name`, or nullptr when the name was never
  /// registered. The returned entry stays valid (and its estimator alive)
  /// for as long as the caller holds the pointer, across any number of
  /// concurrent swaps.
  std::shared_ptr<const ModelEntry> Get(const std::string& name) const;

  /// Sorted (name, current version) pairs of every registered model.
  std::vector<std::pair<std::string, uint64_t>> List() const;

 private:
  mutable std::mutex mu_;  // guards the map and every entry pointer in it
  std::map<std::string, std::shared_ptr<const ModelEntry>> entries_;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_MODEL_REGISTRY_H_
