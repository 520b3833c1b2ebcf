#include "src/util/telemetry/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "src/util/json_writer.h"
#include "src/util/knobs.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace telemetry {

namespace {

thread_local std::string tls_phase_scope;

}  // namespace

bool MetricsEnabled() { return knobs::Bool(knobs::kMetrics); }

void SetMetricsEnabledForTesting(int on) {
  knobs::Override(knobs::kMetrics, on);
}

int64_t MonotonicNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point base = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              base)
      .count();
}

namespace internal {

int ShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local int idx = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return idx;
}

}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) {
    total += c.value.load(std::memory_order_relaxed);
  }
  return total;
}

int Histogram::BucketOf(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN
  int idx = 1 + static_cast<int>(std::floor(
                    std::log2(value / kMinValue) * kBucketsPerDoubling));
  if (idx < 1) idx = 1;
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  return idx;
}

void Histogram::ObserveCountAlways(double value, uint64_t count) {
  if (count == 0) return;
  Shard& shard = shards_[internal::ShardIndex()];
  shard.counts[BucketOf(value)].fetch_add(count, std::memory_order_relaxed);
  double add = value * static_cast<double>(count);
  double cur = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(cur, cur + add,
                                          std::memory_order_relaxed)) {
  }
  // Exact min/max. After warm-up the comparisons fail and no CAS runs.
  double lo = shard.min.load(std::memory_order_relaxed);
  while (value < lo &&
         !shard.min.compare_exchange_weak(lo, value,
                                          std::memory_order_relaxed)) {
  }
  double hi = shard.max.load(std::memory_order_relaxed);
  while (value > hi &&
         !shard.max.compare_exchange_weak(hi, value,
                                          std::memory_order_relaxed)) {
  }
}

namespace {

// Lower edge of bucket i (i >= 1); bucket 0 is the underflow bucket.
double BucketLowerEdge(int i) {
  return Histogram::kMinValue *
         std::exp2(static_cast<double>(i - 1) / Histogram::kBucketsPerDoubling);
}

// Geometric interpolation of rank `target` (0-based, may be fractional)
// within merged bucket counts.
double QuantileFromBuckets(const uint64_t* counts, double target) {
  double cum = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    double c = static_cast<double>(counts[i]);
    if (c <= 0) continue;
    if (cum + c > target) {
      if (i == 0) return Histogram::kMinValue;
      double lo = BucketLowerEdge(i);
      double hi = BucketLowerEdge(i + 1);
      double frac = (target - cum) / c;
      return lo * std::pow(hi / lo, frac);
    }
    cum += c;
  }
  return 0;
}

}  // namespace

HistogramSnapshot Histogram::Snapshot() const {
  uint64_t merged[kNumBuckets] = {};
  HistogramSnapshot snap;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    for (int i = 0; i < kNumBuckets; ++i) {
      merged[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  for (uint64_t c : merged) snap.count += c;
  if (snap.count == 0) return snap;
  snap.mean = snap.sum / static_cast<double>(snap.count);
  double n = static_cast<double>(snap.count);
  snap.p50 = QuantileFromBuckets(merged, 0.50 * n);
  snap.p95 = QuantileFromBuckets(merged, 0.95 * n);
  snap.p99 = QuantileFromBuckets(merged, 0.99 * n);
  snap.p999 = QuantileFromBuckets(merged, 0.999 * n);
  snap.min = std::isfinite(min) ? min : 0.0;
  snap.max = std::isfinite(max) ? max : 0.0;
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name),
                           std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             std::unique_ptr<Histogram>(new Histogram()))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) {
    w->Key(name).Value(c->Value());
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) {
    w->Key(name).Value(g->Value());
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot s = h->Snapshot();
    w->Key(name)
        .BeginObject()
        .Key("count").Value(s.count)
        .Key("mean").Value(s.mean)
        .Key("p50").Value(s.p50)
        .Key("p95").Value(s.p95)
        .Key("p99").Value(s.p99)
        .Key("p999").Value(s.p999)
        .Key("min").Value(s.min)
        .Key("max").Value(s.max)
        .EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c->Value());
  }
  return out;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    for (auto& cell : c->cells_) cell.value.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    for (auto& shard : h->shards_) {
      for (auto& count : shard.counts) {
        count.store(0, std::memory_order_relaxed);
      }
      shard.sum.store(0.0, std::memory_order_relaxed);
      shard.min.store(std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
      shard.max.store(-std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
    }
  }
}

PhaseScope::PhaseScope(std::string label) : saved_(std::move(tls_phase_scope)) {
  tls_phase_scope = std::move(label);
}

PhaseScope::~PhaseScope() { tls_phase_scope = std::move(saved_); }

const std::string& PhaseScope::Current() { return tls_phase_scope; }

namespace {

struct PhaseCounters {
  Counter* ns;
  Counter* calls;
};

// The phase.<key>.{ns,calls} handles, resolved once per (thread, key) so a
// phase close in steady state never takes the registry mutex.
const PhaseCounters& PhaseCountersFor(const std::string& key) {
  thread_local std::unordered_map<std::string, PhaseCounters> cache;
  auto it = cache.find(key);
  if (it == cache.end()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    PhaseCounters counters{&registry.counter("phase." + key + ".ns"),
                           &registry.counter("phase." + key + ".calls")};
    it = cache.emplace(key, counters).first;
  }
  return it->second;
}

}  // namespace

ScopedPhase::ScopedPhase(const char* name)
    : name_(name),
      metrics_on_(MetricsEnabled()),
      trace_on_(SpanRecordingEnabled()) {
  if (trace_on_) {
    parent_span_id_ = CurrentSpanId();
    span_id_ = internal::BeginSpan();
  }
  if (metrics_on_ || trace_on_) start_ns_ = MonotonicNanos();
}

ScopedPhase::~ScopedPhase() {
  if (!metrics_on_ && !trace_on_) return;
  int64_t end_ns = MonotonicNanos();
  if (trace_on_) internal::RestoreCurrentSpan(parent_span_id_);
  const std::string& scope = PhaseScope::Current();
  std::string key = scope.empty() ? std::string(name_) : scope + ":" + name_;
  if (metrics_on_) {
    const PhaseCounters& counters = PhaseCountersFor(key);
    counters.ns->AddAlways(static_cast<uint64_t>(end_ns - start_ns_));
    counters.calls->AddAlways(1);
  }
  if (trace_on_) {
    internal::AppendCompleteEvent(std::move(key), start_ns_, end_ns, span_id_,
                                  parent_span_id_, {});
  }
}

}  // namespace telemetry
}  // namespace lce
