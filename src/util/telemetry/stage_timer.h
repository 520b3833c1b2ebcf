// Per-query stage decomposition for estimator inference paths.
//
// Every estimator's EstimateImpl/EstimateBatch constructs a StageTimer and
// marks stage boundaries (encode/featurize -> forward/traverse ->
// postprocess). Each closed stage feeds the
// `ce.<model>.stage.<stage>.micros` histogram, whose handle is resolved once
// per thread, and — when span recording is on — records a `stage/<stage>`
// trace span nested under the enclosing span, so kernel spans (MatMul,
// FlatForest::PredictBatch) fold under their stage in the profiler.
//
// The timer also records the whole timed window into
// `ce.<model>.latency.micros`, so the lce_report stage breakdown can show
// what fraction of estimate latency the stages cover. Stage close and next
// stage open share one clock read: emission cost is attributed to the
// following stage, never lost between stages.
//
// With all telemetry gates off, constructing a StageTimer is two relaxed
// loads and a branch; Mark() is a thread-local load plus a branch. Estimator
// outputs are bit-identical either way.
//
// Marking from shared helpers (a virtual Forward that doesn't see the
// timer) goes through the static Mark(), which targets the innermost live
// timer on the thread — nested estimators (Bounded wrapping two inner
// estimators) therefore attribute stages to the model actually executing.

#ifndef LCE_UTIL_TELEMETRY_STAGE_TIMER_H_
#define LCE_UTIL_TELEMETRY_STAGE_TIMER_H_

#include <cstdint>
#include <string>
#include <utility>

namespace lce {
namespace telemetry {

class StageTimer {
 public:
  /// `model_name_fn` is only invoked (and its result only materialized) when
  /// a telemetry gate is on. `batch` scales observations for batched
  /// estimates: stage and latency histograms record per-item microseconds
  /// with observation weight `batch`.
  template <typename NameFn>
  explicit StageTimer(NameFn&& model_name_fn, uint64_t batch = 1) {
    if (ShouldActivate()) Activate(model_name_fn(), batch);
  }
  ~StageTimer() {
    if (active_) Deactivate();
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Closes the open stage (if any) and opens `stage`. `stage` must outlive
  /// the timer — use a string literal.
  void Stage(const char* stage);

  /// Stage() on the innermost live timer of this thread; no-op when none.
  static void Mark(const char* stage);

 private:
  static bool ShouldActivate();
  void Activate(std::string model, uint64_t batch);
  void Deactivate();
  // Closes the open stage with `now` as both its end and the emission
  // timestamp origin for the next stage.
  void CloseOpenStage(int64_t now_ns);

  bool active_ = false;
  bool metrics_on_ = false;
  bool spans_on_ = false;
  bool fr_on_ = false;  // flight recorder consuming per-stage samples
  uint64_t batch_ = 1;
  std::string model_;
  int64_t begin_ns_ = 0;
  const char* open_stage_ = nullptr;
  int64_t open_start_ns_ = 0;
  uint64_t open_span_id_ = 0;
  uint64_t open_parent_id_ = 0;
  StageTimer* prev_ = nullptr;  // enclosing timer on this thread
};

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_STAGE_TIMER_H_
