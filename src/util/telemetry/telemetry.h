// Process-wide metrics: counters, gauges, and log-bucketed latency
// histograms, collected through sharded per-thread cells so recording from
// inside the parallel kernels never contends on a lock or a shared cache
// line.
//
// Everything is env-gated: with LCE_METRICS unset (or "0"), every recording
// call is a relaxed atomic load plus a predictable branch — no clock reads,
// no allocation — and estimator outputs are bit-identical to a build without
// telemetry. With LCE_METRICS set, recording is a relaxed fetch_add on a
// per-thread shard.
//
// Naming conventions (see DESIGN.md §7):
//   counters    dot-separated area.metric        e.g. exec.rows_scanned
//   gauges      same                              e.g. nn.last_epoch_loss
//   histograms  same, unit-suffixed               e.g. eval.estimate_latency_us
//   phases      phase.<scope>:<name>.{ns,calls}   e.g. phase.FCN:nn/epoch.ns
// where <scope> is the enclosing PhaseScope label (usually the estimator
// under build) and <name> is a slash-separated area/step like
// "gbdt/split_search".

#ifndef LCE_UTIL_TELEMETRY_TELEMETRY_H_
#define LCE_UTIL_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lce {

class JsonWriter;

namespace telemetry {

/// True when metric collection is on: LCE_METRICS on, or overridden for
/// tests. A relaxed load; safe and cheap on hot paths.
bool MetricsEnabled();

/// Overrides LCE_METRICS (tests). on<0 restores the env-derived value.
void SetMetricsEnabledForTesting(int on);

/// Monotonic nanoseconds since the first call in this process.
int64_t MonotonicNanos();

namespace internal {
constexpr int kShards = 16;
/// Stable per-thread shard index in [0, kShards).
int ShardIndex();
}  // namespace internal

/// Monotonically increasing sum, sharded per thread. Add() is dropped while
/// metrics are disabled.
class Counter {
 public:
  void Add(uint64_t delta) {
    if (!MetricsEnabled()) return;
    AddAlways(delta);
  }
  void Increment() { Add(1); }
  /// Records even while disabled; for callers that already checked the gate
  /// and for tests.
  void AddAlways(uint64_t delta) {
    cells_[internal::ShardIndex()].value.fetch_add(delta,
                                                   std::memory_order_relaxed);
  }
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[internal::kShards];
};

/// Last-writer-wins double value.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    SetAlways(v);
  }
  /// Records even while metrics are disabled; for subsystems with their own
  /// opt-in gate (e.g. drift monitors) and for tests.
  void SetAlways(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  double min = 0;  // exact smallest observed value
  double max = 0;  // exact largest observed value
};

/// Log-bucketed histogram: buckets grow by 2^(1/3) (~26% relative width)
/// from kMinValue, so quantiles are exact to within one bucket across ten
/// decades without ever allocating on the record path. Values at or below
/// kMinValue land in the underflow bucket and report as kMinValue.
class Histogram {
 public:
  static constexpr int kNumBuckets = 128;
  static constexpr double kMinValue = 1e-3;
  static constexpr int kBucketsPerDoubling = 3;

  void Observe(double value) {
    if (!MetricsEnabled()) return;
    ObserveAlways(value);
  }
  void ObserveAlways(double value) { ObserveCountAlways(value, 1); }

  /// Records `count` observations of `value` (one bucket add; sum, min, and
  /// max treat it as `count` repeats). StageTimer uses this to record a
  /// batch's per-item time with weight `batch`.
  void ObserveCountAlways(double value, uint64_t count);

  HistogramSnapshot Snapshot() const;

  /// Bucket index for `value`; exposed for tests.
  static int BucketOf(double value);

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kNumBuckets] = {};
    std::atomic<double> sum{0.0};
    // Empty-shard sentinels; Snapshot() ignores them when merging.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  Shard shards_[internal::kShards];
};

/// The process-wide registry. Handles returned by counter()/gauge()/
/// histogram() are valid for the process lifetime (ResetForTesting zeroes
/// values but never invalidates handles), so hot call sites may cache them
/// in function-local statics.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Writes {"counters": {...}, "gauges": {...}, "histograms": {...}} as one
  /// JSON object value into `w` (which must be positioned to accept a value).
  void WriteJson(JsonWriter* w) const;

  /// Sorted name -> value snapshot of all counters (tests, manifests).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  /// Zeroes every counter, gauge, and histogram; handles stay valid.
  void ResetForTesting();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Labels all phases recorded on this thread until destruction (phases nest:
/// the innermost scope wins). The bench harness scopes each estimator build
/// so phase counters attribute to "LW-XGB:gbdt/split_search" rather than a
/// global pot.
class PhaseScope {
 public:
  explicit PhaseScope(std::string label);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// The current thread's innermost scope label ("" when none).
  static const std::string& Current();

 private:
  std::string saved_;
};

/// RAII phase timer: on destruction adds elapsed time to the
/// phase.<scope>:<name>.{ns,calls} counters (when metrics are on) and records
/// a trace span (when span recording is on). The counter handles are resolved
/// once per (thread, key); the span goes to the thread's trace buffer.
/// `name` must outlive the object — use a string literal.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  bool metrics_on_;
  bool trace_on_;
  uint64_t span_id_ = 0;         // trace span id while tracing is on
  uint64_t parent_span_id_ = 0;  // enclosing span at construction
};

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_TELEMETRY_H_
