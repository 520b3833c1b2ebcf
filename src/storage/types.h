// Core value and statistics types of the storage engine.
//
// Every stored value is an int64. The study encodes string attributes as
// integers with dictionaries; the generated databases (storage::datagen) are
// integer-valued from the start, so nothing here loads strings.

#ifndef LCE_STORAGE_TYPES_H_
#define LCE_STORAGE_TYPES_H_

#include <cstdint>
#include <limits>

namespace lce {
namespace storage {

using Value = int64_t;

constexpr Value kValueMin = std::numeric_limits<Value>::min();
constexpr Value kValueMax = std::numeric_limits<Value>::max();

/// Per-column statistics maintained by Table::Finalize().
struct ColumnStats {
  Value min = 0;
  Value max = 0;
  uint64_t distinct = 0;  // exact count of distinct values
  uint64_t rows = 0;
};

}  // namespace storage
}  // namespace lce

#endif  // LCE_STORAGE_TYPES_H_
