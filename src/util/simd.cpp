#include "src/util/simd.h"

#include "src/util/knobs.h"

namespace lce {
namespace simd {

bool SimdEnabled() { return knobs::Bool(knobs::kSimd); }

void SetSimdEnabledForTesting(int on) {
  knobs::Override(knobs::kSimd, on);
}

}  // namespace simd
}  // namespace lce
