// Process-wide switch for the vectorized kernel layer (dense NN kernels in
// src/nn/matrix.*, batched GBDT traversal in src/gbdt/gbdt.*).
//
// LCE_SIMD (default on), following the LCE_ORACLE_INDEX A/B precedent: off
// restores the naive reference kernels. The two paths are bit-identical on
// every input by construction (see DESIGN.md §10): the fast kernels keep the
// per-element k-accumulation order of the sequential loops and only
// reorganize *which* independent elements make progress together.

#ifndef LCE_UTIL_SIMD_H_
#define LCE_UTIL_SIMD_H_

namespace lce {
namespace simd {

/// True when the vectorized kernel layer is active: LCE_SIMD on (the
/// default), unless overridden by SetSimdEnabledForTesting.
bool SimdEnabled();

/// Overrides LCE_SIMD (tests, A/B benches). on >= 1 forces the vectorized
/// path, on == 0 forces the naive reference, on < 0 restores the env default.
void SetSimdEnabledForTesting(int on);

}  // namespace simd
}  // namespace lce

#endif  // LCE_UTIL_SIMD_H_
