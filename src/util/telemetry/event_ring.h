// Compatibility stubs for lcebench/main.cpp, their only caller; delete this
// header once lcebench stops calling them. Counters, histograms and spans
// are written to the metrics registry and the per-thread span buffers when
// they are recorded, so there is nothing to flush and nothing is dropped.

#ifndef LCE_UTIL_TELEMETRY_EVENT_RING_H_
#define LCE_UTIL_TELEMETRY_EVENT_RING_H_

#include <cstdint>

namespace lce {
namespace telemetry {

/// No-op: every record is applied when it is made.
inline void FlushEventRings() {}

/// Always 0: no recording path drops events.
inline uint64_t DroppedEventCount() { return 0; }

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_EVENT_RING_H_
