// Scoped trace spans with Chrome trace-event JSON export.
//
// Setting LCE_TRACE=<path> enables tracing: every TraceSpan (and every
// telemetry::ScopedPhase and StageTimer stage) records a complete event
// ("ph":"X") with wall-clock start, duration, and the recording thread's id
// into a per-thread buffer (one uncontended mutex acquisition per span; the
// buffer grows 4096 spans at a time and never moves what it holds).
// WriteTraceIfEnabled() — called by the bench harness and automatically at
// process exit — merges the buffers and writes a JSON file loadable by
// chrome://tracing or https://ui.perfetto.dev.
//
// Spans carry ids: each live TraceSpan pushes its id as the thread's
// "current span", so nested spans record their parent and the hierarchy
// survives into the export (span_id/parent_span_id args; cross-thread edges
// additionally get Chrome flow events so pool work draws arrows back to the
// submitting span). ThreadPool::Submit captures CurrentSpanId() at submit
// time and re-establishes it inside the worker via ScopedTraceParent, so
// parallel lanes nest under the span that spawned them instead of floating
// as orphans.
//
// With LCE_TRACE and LCE_PROFILE unset, constructing a TraceSpan is two
// relaxed atomic loads plus a branch; nothing is recorded and no clock is
// read.

#ifndef LCE_UTIL_TELEMETRY_TRACE_H_
#define LCE_UTIL_TELEMETRY_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace lce {
namespace telemetry {

/// True when trace collection is on (LCE_TRACE set, or a test override).
bool TraceEnabled();

/// True when spans must be recorded at all: tracing is on, or the profiler
/// (LCE_PROFILE) wants the span stream folded into a call tree. Everything
/// that records spans — TraceSpan, ScopedPhase, stage timers, and
/// ThreadPool::Submit's cross-thread parent adoption — gates on this, not on
/// TraceEnabled(), so profiles see the same hierarchy traces do.
bool SpanRecordingEnabled();

/// Overrides the trace destination (tests). Empty path disables tracing;
/// nullptr restores the LCE_TRACE-derived value.
void SetTracePathForTesting(const char* path);

/// The current trace output path ("" when tracing is off).
std::string TracePath();

/// Names the calling thread in trace output (thread_name metadata event).
void SetCurrentThreadName(std::string name);

/// One recorded span; exposed for tests via SnapshotTraceEventsForTesting.
struct TraceEvent {
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t tid = 0;
  uint64_t id = 0;         // unique per span, process-wide
  uint64_t parent_id = 0;  // enclosing span at construction (0 = root)
  std::vector<std::pair<std::string, double>> args;
};

/// Id of the innermost live span on this thread (0 when none, or when
/// tracing is off). Capture at task-submit time and adopt in the worker via
/// ScopedTraceParent to parent cross-thread work.
uint64_t CurrentSpanId();

/// RAII: makes `parent_id` the calling thread's current span for the scope,
/// so spans constructed inside attribute it as their parent. Restores the
/// previous value on destruction.
class ScopedTraceParent {
 public:
  explicit ScopedTraceParent(uint64_t parent_id);
  ~ScopedTraceParent();
  ScopedTraceParent(const ScopedTraceParent&) = delete;
  ScopedTraceParent& operator=(const ScopedTraceParent&) = delete;

 private:
  uint64_t saved_;
};

/// RAII span: records [construction, destruction) on the calling thread.
/// Use the string overload for dynamic names; it is only materialized when
/// tracing is enabled.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  explicit TraceSpan(std::string name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument shown in the trace viewer ("args" field).
  void AddArg(const char* key, double value);

 private:
  std::string name_;
  int64_t start_ns_ = 0;
  bool active_;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  std::vector<std::pair<std::string, double>> args_;
};

/// Minimum per-call work (fused multiply-adds, node visits, ...) for a
/// kernel to earn its own span. Below this a kernel runs in ~1µs and a
/// ~100ns span is distortion, not measurement — and batch-1 training loops
/// issue millions of them. Sub-threshold kernel time attributes to the
/// enclosing span (epoch, stage), which is where a profiler wants it.
inline constexpr int64_t kKernelSpanMinWork = 32 * 1024;

/// RAII span for dense kernels: records exactly like TraceSpan, but only
/// when `work` clears kKernelSpanMinWork. Construction with recording off or
/// work under the threshold is a relaxed load, a compare, and nothing else.
class KernelSpan {
 public:
  KernelSpan(const char* name, int64_t work) {
    if (work >= kKernelSpanMinWork && SpanRecordingEnabled()) {
      span_.emplace(name);
    }
  }

 private:
  std::optional<TraceSpan> span_;
};

/// Flushes all buffered events to TracePath() as Chrome trace-event JSON.
/// No-op when tracing is off. Safe to call more than once (rewrites the
/// file with everything recorded so far).
void WriteTraceIfEnabled();

/// WriteTraceIfEnabled with error reporting: OK when tracing is off or the
/// file was written; otherwise the write error (also logged, with the path,
/// and counted in the `telemetry.export_failures` metric). Parent
/// directories are created as needed.
Status WriteTraceNow();

/// All events recorded so far (tests). Pair with ClearTraceForTesting.
std::vector<TraceEvent> SnapshotTraceEventsForTesting();
void ClearTraceForTesting();

namespace internal {
/// Appends a finished span to the calling thread's buffer; the one recording
/// path for TraceSpan, telemetry::ScopedPhase and StageTimer stages.
void AppendCompleteEvent(std::string name, int64_t start_ns, int64_t end_ns,
                         uint64_t id, uint64_t parent_id,
                         std::vector<std::pair<std::string, double>> args);

/// Allocates a fresh span id and installs it as the thread's current span.
/// Returns the new id; the previous current span (the parent) is read with
/// CurrentSpanId() *before* calling. Pair with RestoreCurrentSpan.
uint64_t BeginSpan();

/// Restores `parent_id` as the thread's current span (span destruction).
void RestoreCurrentSpan(uint64_t parent_id);
}  // namespace internal

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_TRACE_H_
