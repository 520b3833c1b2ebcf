// Binary (de)serialization of model parameters.
//
// Format: for each param, int32 rows, int32 cols, then rows*cols float32.
// Loading checks shapes against the already-constructed model, so a model is
// always rebuilt from its hyperparameters first and then restored.

#ifndef LCE_NN_SERIALIZE_H_
#define LCE_NN_SERIALIZE_H_

#include <istream>
#include <ostream>
#include <vector>

#include "src/nn/param.h"
#include "src/util/status.h"

namespace lce {
namespace nn {

void SaveParams(const std::vector<Param*>& params, std::ostream* os);

/// Restores values (not optimizer moments). Fails on shape mismatch, a
/// truncated stream or a non-finite value, and then changes no parameter.
Status LoadParams(const std::vector<Param*>& params, std::istream* is);

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_SERIALIZE_H_
