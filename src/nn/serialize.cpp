#include "src/nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace lce {
namespace nn {

void SaveParams(const std::vector<Param*>& params, std::ostream* os) {
  for (const Param* p : params) {
    int32_t rows = p->value.rows();
    int32_t cols = p->value.cols();
    os->write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    os->write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    // Per logical row: storage is padded (matrix.h), the byte stream is not —
    // the on-disk format is unchanged from the flat-storage era.
    for (int32_t r = 0; r < rows; ++r) {
      os->write(reinterpret_cast<const char*>(p->value.RowPtr(r)),
                static_cast<std::streamsize>(cols * sizeof(float)));
    }
  }
}

Status LoadParams(const std::vector<Param*>& params, std::istream* is) {
  // Every value is read and checked before any is committed, so a stream
  // that fails a check leaves the model exactly as it was.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Param* p = params[i];
    int32_t rows = 0, cols = 0;
    is->read(reinterpret_cast<char*>(&rows), sizeof(rows));
    is->read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!*is) return Status::InvalidArgument("truncated parameter stream");
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    staged[i].resize(static_cast<size_t>(rows) * cols);
    is->read(reinterpret_cast<char*>(staged[i].data()),
             static_cast<std::streamsize>(staged[i].size() * sizeof(float)));
    if (!*is) return Status::InvalidArgument("truncated parameter stream");
    for (float v : staged[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite value in parameter " +
                                       std::to_string(i));
      }
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& value = params[i]->value;
    for (int r = 0; r < value.rows(); ++r) {
      const float* src = staged[i].data() + static_cast<size_t>(r) * value.cols();
      std::copy(src, src + value.cols(), value.RowPtr(r));
    }
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace lce
