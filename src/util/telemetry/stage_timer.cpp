#include "src/util/telemetry/stage_timer.h"

#include <unordered_map>

#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace telemetry {

namespace {

thread_local StageTimer* tls_innermost_timer = nullptr;

struct StageKeyHash {
  size_t operator()(const std::pair<std::string, const char*>& k) const {
    return std::hash<std::string_view>{}(k.first) ^
           (std::hash<const void*>{}(k.second) * 1099511628211ull);
  }
};

// (model, stage-literal) -> the "ce.<model>.stage.<stage>.micros" handle,
// resolved once per thread. Keyed on the literal's address: Stage()/Mark()
// contract requires literals, so repeat calls hit the cache without
// composing the metric name.
Histogram& StageHist(const std::string& model, const char* stage) {
  thread_local std::unordered_map<std::pair<std::string, const char*>,
                                  Histogram*, StageKeyHash>
      cache;
  auto key = std::make_pair(model, stage);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Histogram* h = &MetricsRegistry::Global().histogram(
        "ce." + model + ".stage." + stage + ".micros");
    it = cache.emplace(std::move(key), h).first;
  }
  return *it->second;
}

Histogram& LatencyHist(const std::string& model) {
  thread_local std::unordered_map<std::string, Histogram*> cache;
  auto it = cache.find(model);
  if (it == cache.end()) {
    Histogram* h =
        &MetricsRegistry::Global().histogram("ce." + model + ".latency.micros");
    it = cache.emplace(model, h).first;
  }
  return *it->second;
}

}  // namespace

bool StageTimer::ShouldActivate() {
  return MetricsEnabled() || SpanRecordingEnabled() || QueryRecordsWanted();
}

void StageTimer::Activate(std::string model, uint64_t batch) {
  active_ = true;
  metrics_on_ = MetricsEnabled();
  spans_on_ = SpanRecordingEnabled();
  fr_on_ = QueryRecordsWanted();
  batch_ = batch == 0 ? 1 : batch;
  model_ = std::move(model);
  prev_ = tls_innermost_timer;
  tls_innermost_timer = this;
  // A top-level timer starts a fresh per-query stage capture; nested timers
  // (wrapper estimators) append to the same query's samples.
  if (fr_on_ && prev_ == nullptr) internal::ResetThreadStageSamples();
  begin_ns_ = MonotonicNanos();
}

void StageTimer::CloseOpenStage(int64_t now_ns) {
  if (open_stage_ == nullptr) return;
  if (spans_on_) {
    internal::RestoreCurrentSpan(open_parent_id_);
    internal::AppendCompleteEvent(std::string("stage/") + open_stage_,
                                  open_start_ns_, now_ns, open_span_id_,
                                  open_parent_id_, {});
  }
  if (metrics_on_ || fr_on_) {
    double micros = static_cast<double>(now_ns - open_start_ns_) /
                    (1e3 * static_cast<double>(batch_));
    if (metrics_on_) {
      StageHist(model_, open_stage_).ObserveCountAlways(micros, batch_);
    }
    if (fr_on_) internal::NoteThreadStageSample(open_stage_, micros);
  }
  open_stage_ = nullptr;
}

void StageTimer::Stage(const char* stage) {
  if (!active_) return;
  int64_t now = MonotonicNanos();
  CloseOpenStage(now);
  open_stage_ = stage;
  open_start_ns_ = now;
  if (spans_on_) {
    open_parent_id_ = CurrentSpanId();
    open_span_id_ = internal::BeginSpan();
  }
}

void StageTimer::Deactivate() {
  int64_t now = MonotonicNanos();
  CloseOpenStage(now);
  if (metrics_on_) {
    double micros = static_cast<double>(now - begin_ns_) /
                    (1e3 * static_cast<double>(batch_));
    LatencyHist(model_).ObserveCountAlways(micros, batch_);
  }
  tls_innermost_timer = prev_;
}

void StageTimer::Mark(const char* stage) {
  if (tls_innermost_timer != nullptr) tls_innermost_timer->Stage(stage);
}

}  // namespace telemetry
}  // namespace lce
