// Plain-text metrics snapshot exporter (LCE_METRICS_SNAPSHOT=<path>).
//
// Run manifests embed the full metrics registry as JSON, which is right for
// bench_diff and lce_report but heavy for external scrapers and shell tests
// that just want one number. This exporter writes the registry as
// Prometheus-style text exposition — one `name value` pair per line:
//
//   lce_exec_rows_scanned 1183744
//   lce_eval_estimate_latency_us_count 200
//   lce_eval_estimate_latency_us_p99 512.375
//
// Counters export as-is; gauges as-is; histograms fan out into
// _count/_sum/_mean/_p50/_p95/_p99/_p999/_min/_max series. Metric names are
// sanitized to the Prometheus charset ([a-zA-Z0-9_:]) with every other byte
// mapped to '_', and prefixed "lce_". Lines are sorted by name, so the file
// diffs cleanly across runs.
//
// The bench harness (BenchRun) writes the snapshot at shutdown when
// LCE_METRICS_SNAPSHOT is set; other hosts may call WriteMetricsSnapshotNow
// at any flush point.

#ifndef LCE_UTIL_TELEMETRY_METRICS_SNAPSHOT_H_
#define LCE_UTIL_TELEMETRY_METRICS_SNAPSHOT_H_

#include <string>

#include "src/util/status.h"

namespace lce {
namespace telemetry {

/// True when LCE_METRICS_SNAPSHOT names a destination (or a test override
/// does).
bool MetricsSnapshotEnabled();

/// The configured snapshot path ("" when disabled).
std::string MetricsSnapshotPath();

/// Overrides LCE_METRICS_SNAPSHOT (tests). Empty string disables; nullptr
/// restores the env-derived value.
void SetMetricsSnapshotPathForTesting(const char* path);

/// Renders the registry as the text exposition described above.
std::string RenderMetricsSnapshot();

/// Sanitizes one metric name for the exposition: "lce_" + name with every
/// byte outside [a-zA-Z0-9_:] replaced by '_'. Exposed for tests and for
/// tools that grep snapshot files.
std::string PrometheusName(const std::string& name);

/// Writes RenderMetricsSnapshot() to `path`, creating parent directories.
/// Failures are logged and counted in `telemetry.export_failures`.
Status WriteMetricsSnapshotNow(const std::string& path);

/// WriteMetricsSnapshotNow(MetricsSnapshotPath()) when enabled; else no-op.
void WriteMetricsSnapshotIfEnabled();

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_METRICS_SNAPSHOT_H_
