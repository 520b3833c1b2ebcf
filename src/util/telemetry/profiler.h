// Span profiler: folds the trace stream into a call tree with self/total
// time and invocation counts, and exports flamegraph-compatible
// collapsed-stack files.
//
// Setting LCE_PROFILE enables span recording even when LCE_TRACE is unset
// (see SpanRecordingEnabled() in trace.h): every TraceSpan / ScopedPhase /
// stage span is collected, and WriteProfileNow() — called at process exit —
// walks each span's parent chain (span ids propagate across threads
// through ThreadPool::Submit, so pool work folds under the submitting span)
// and aggregates by name path:
//
//   build/FCN@dmv;nn/epoch;parallel/lane;MatMul 184223
//
// One line per distinct path, value = self time in microseconds (total time
// minus the time covered by child spans), directly consumable by
// https://github.com/brendangregg/FlameGraph or speedscope.app. The folded
// tree (with per-path totals and invocation counts) also feeds the top-N
// hot-path table in tools/lce_report.
//
// LCE_PROFILE=1 writes `lce_profile.collapsed` in the working directory; any
// other non-"0" value is used as the output path.

#ifndef LCE_UTIL_TELEMETRY_PROFILER_H_
#define LCE_UTIL_TELEMETRY_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace telemetry {

/// True when profiling is on (LCE_PROFILE names a path, or a test override).
/// A relaxed load; safe on hot paths.
bool ProfileEnabled();

/// Overrides the profile destination (tests). Empty path disables profiling;
/// nullptr restores the LCE_PROFILE-derived value.
void SetProfilePathForTesting(const char* path);

/// The collapsed-stack output path ("" when profiling is off).
std::string ProfilePath();

/// One aggregated call-tree node: every recorded span whose ancestor-name
/// chain spells `path` contributes to it.
struct ProfileNode {
  std::string path;     // ";"-joined names, root first
  std::string name;     // leaf name (last path component)
  int depth = 0;        // number of ancestors (root = 0)
  int64_t total_ns = 0; // sum of span durations at this path
  int64_t self_ns = 0;  // total minus child-span time, clamped at 0
  uint64_t count = 0;   // invocations (spans aggregated here)
};

/// Folds spans into path-aggregated nodes, sorted by descending self time.
/// Spans whose parent id is unknown (still open at export, or dropped) root
/// their own subtree. Self time is clamped at zero: children running in
/// parallel on pool threads can sum past their parent's wall time.
std::vector<ProfileNode> BuildProfile(const std::vector<TraceEvent>& events);

/// Collapsed-stack text for `nodes`: one "path self_micros" line per node
/// with nonzero self time, in descending self-time order. Semicolons inside
/// span names are rewritten to ':' to keep the path separator unambiguous.
std::string ToCollapsed(const std::vector<ProfileNode>& nodes);

/// Folds everything recorded so far (tests).
std::vector<ProfileNode> SnapshotProfileForTesting();

/// Writes the collapsed-stack file to ProfilePath(). OK when profiling is
/// off or the file was written; errors are logged and counted in
/// `telemetry.export_failures`.
Status WriteProfileNow();

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_PROFILER_H_
