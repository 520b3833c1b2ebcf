// Measurement helpers of the benchmark: quantiles that carry their sample
// count, a fixed-size latency histogram, and an in-memory span log with
// per-span self time.
//
// Spans are recorded by the benchmark around its own calls into the library
// (never inside src/). A span's layer is its name up to the first '.', so
// "query.parse" belongs to the query layer and "ce.build.MSCN" to ce. Spans
// of one request share a request id; a span's self time is its duration
// minus the part of it covered by its direct children.

#ifndef LCEBENCH_SPANS_H_
#define LCEBENCH_SPANS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lcebench {

/// Monotonic nanoseconds on the library's telemetry clock, so spans line up
/// with the batcher's queue-wait stamps.
int64_t NowNs();

/// A quantile read off a sample, with the evidence behind it.
struct Quantile {
  double value = 0;
  size_t samples = 0;  // size of the sample it was read from
  size_t beyond = 0;   // samples strictly greater than `value`
};

/// The `q` quantile (q in [0, 1]) of `values`, by lce::Percentile (linear
/// interpolation between the closest ranks). An empty sample gives {0, 0, 0}.
Quantile QuantileOf(const std::vector<double>& values, double q);

/// Median of `values` (0 when empty).
double Median(const std::vector<double>& values);

/// Latencies in log-spaced buckets (1% wide, 0.05 us to 100 s). Its memory
/// is allocated and touched up front, so recording allocates nothing and the
/// benchmark's own footprint does not grow with throughput. Quantiles
/// interpolate inside a bucket, so on a dense sample (many samples per
/// bucket) they are within 1% of the exact sample quantile.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// The `q` quantile (q in [0, 1]) by the same rank rule as QuantileOf;
  /// {0, 0, 0} when empty.
  Quantile QuantileOf(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span
  uint64_t request = 0;  // shared by every span of one request; 0 for setup
  std::string name;      // "<layer>.<what>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// "query.parse" -> "query"; a name without '.' is its own layer.
std::string LayerOf(const std::string& name);

/// Self time of every span, index-aligned with `spans`: duration minus the
/// union of its direct children's intervals clipped to the span.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Adds each span's self time to `by_layer[LayerOf(name)]`.
void AddSelfTimesByLayer(const std::vector<Span>& spans,
                         std::map<std::string, int64_t>* by_layer);

/// Thread-safe in-memory span recorder; written out once at exit.
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(Span span);
  /// Copy of everything recorded so far.
  std::vector<Span> Snapshot() const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times a scope; records it into `log` when one is given. The clock is read
/// either way, so callers get the same durations with tracing off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t parent = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();

 private:
  SpanLog* log_;
  Span span_;
  bool open_ = true;
};

/// Writes `spans` as a Chrome trace-event file (chrome://tracing, Perfetto)
/// with each span's id, parent, request and self time as args. Returns false
/// when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace lcebench

#endif  // LCEBENCH_SPANS_H_
