// Rolling-window q-error drift monitors (LCE_DRIFT_WINDOW=<n>).
//
// A WindowedQuantileSketch keeps the last `window` observations in a ring
// buffer and answers exact quantiles over that window (windows are small —
// tens to hundreds of queries — so exactness costs one sort per read). A
// DriftMonitor feeds each observed q-error into its sketch, publishes the
// windowed p50/p95 as gauges (`ce/<name>/qerr_p50_window`,
// `ce/<name>/qerr_p95_window`) in the MetricsRegistry, and emits an
// edge-triggered DriftAlert when the windowed p95 crosses its threshold
// upward with a full window — the signal the update/drift benches (R10/R14)
// use to report detection lag.
//
// The evaluation harness wires estimator q-errors into per-estimator global
// monitors when LCE_DRIFT_WINDOW is set (window size from the env,
// threshold Options::threshold_p95, 10). Monitors observe only;
// they never touch estimator state, so estimates are bit-identical with the
// monitor on or off (tested). Benches may also construct monitors directly
// with explicit options, independent of the env gate.

#ifndef LCE_UTIL_TELEMETRY_DRIFT_H_
#define LCE_UTIL_TELEMETRY_DRIFT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lce {
namespace telemetry {

/// Exact quantiles over the trailing `window` observations.
class WindowedQuantileSketch {
 public:
  explicit WindowedQuantileSketch(size_t window);

  void Observe(double value);

  /// Quantile `q` in [0, 1] over the current window contents, with linear
  /// interpolation between order statistics. 0 when empty.
  double Quantile(double q) const;

  /// Observations currently in the window: min(count, window).
  size_t size() const;
  /// Total observations ever fed.
  uint64_t count() const { return count_; }
  bool full() const { return count_ >= window_; }
  size_t window() const { return window_; }

 private:
  size_t window_;
  std::vector<double> ring_;
  size_t next_ = 0;
  uint64_t count_ = 0;
};

/// One threshold crossing: at observation `observation` (1-based), the
/// windowed p95 moved from below `threshold` to `p95`.
struct DriftAlert {
  std::string monitor;
  uint64_t observation = 0;
  double p95 = 0;
  double threshold = 0;
};

class DriftMonitor {
 public:
  struct Options {
    size_t window = 64;
    double threshold_p95 = 10.0;
  };

  DriftMonitor(std::string name, Options options);

  /// Feeds one q-error: updates the sketch, republishes the window gauges,
  /// and fires an alert on an upward p95 threshold crossing (edge-triggered,
  /// armed only once the window is full). Thread-safe.
  void Observe(double qerror);

  double WindowP95() const;
  double WindowP50() const;
  uint64_t observations() const;

  /// Alerts accumulated since the last drain, oldest first.
  std::vector<DriftAlert> DrainAlerts();

  /// The last kAlertHistory alerts ever fired, oldest first — unlike
  /// DrainAlerts this never consumes, so run manifests and lce_report can
  /// show what fired even after a bench drained its queue.
  std::vector<DriftAlert> AlertHistory() const;

  const std::string& name() const { return name_; }
  const Options& options() const { return options_; }

  /// Bound on the retained (non-draining) alert history per monitor.
  static constexpr size_t kAlertHistory = 64;

 private:
  std::string name_;
  Options options_;
  mutable std::mutex mu_;
  WindowedQuantileSketch sketch_;
  bool above_ = false;
  std::vector<DriftAlert> alerts_;
  std::vector<DriftAlert> history_;  // bounded at kAlertHistory, never drained
};

/// True when the env-driven drift wiring is on: LCE_DRIFT_WINDOW set to a
/// positive integer, or a test override.
bool DriftEnabled();

/// The configured window (0 when disabled).
size_t DriftWindow();

/// Overrides LCE_DRIFT_WINDOW (tests). window < 0 restores the env value.
void SetDriftWindowForTesting(int window);

/// The process-wide monitor for `name` (usually an estimator name), created
/// on first use with the env-derived options. Valid for process lifetime.
DriftMonitor& GlobalDriftMonitor(const std::string& name);

/// Non-draining alert history of every global monitor, oldest first per
/// monitor (run manifests, lce_report).
std::vector<DriftAlert> AllDriftAlertHistory();

/// Drops all global monitors (tests).
void ResetDriftForTesting();

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_DRIFT_H_
