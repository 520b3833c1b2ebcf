// Named, versioned estimator registry for the estimation service.
//
// A registry slot holds the current build of one named model behind an
// atomic shared_ptr: Register() on an existing name publishes a new
// ModelEntry with a bumped version in one atomic swap, while requests that
// already resolved the previous entry keep estimating against it until their
// batch drains — no reader ever blocks on a writer, and no estimator is
// destroyed while a flush still uses it.
//
// The registry stores models only; per-model runtime state (request
// counters, the micro-batcher) lives in serve::EstimationService.

#ifndef LCE_SERVE_MODEL_REGISTRY_H_
#define LCE_SERVE_MODEL_REGISTRY_H_

#include <atomic>
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
  // The slot object is heap-stable: the map only ever gains entries, so a
  // Get() that found a slot can load from it after dropping the map mutex.
  struct Slot {
    std::atomic<std::shared_ptr<const ModelEntry>> entry;
  };

  mutable std::mutex mu_;  // guards the map shape, not the entries
  std::map<std::string, std::unique_ptr<Slot>> slots_;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_MODEL_REGISTRY_H_
