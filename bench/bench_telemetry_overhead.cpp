// bench_telemetry_overhead: what does always-on telemetry cost?
//
// Two layers of measurement, both recorded as telemetry.overhead.* gauges in
// BENCH_manifest_telemetry_overhead.json so tools/bench_diff can gate them
// against bench/baselines/:
//
//   1. Primitive ns/event: each recording primitive (counter add, histogram
//      observe, ScopedPhase, TraceSpan, StageTimer) timed in a tight loop
//      with its gate off and on. The "off" numbers are the price every
//      production call site pays unconditionally; they must stay at a few
//      nanoseconds (a relaxed load and a branch). The "on" numbers are the
//      recording path: a write to the thread's registry shard, plus an
//      append to the thread's span buffer for span primitives.
//
//   2. End-to-end ratio: a small build+evaluate workload (the bench_r2
//      shape: generate, label, build three estimator families, evaluate)
//      run per gate combination — all off; metrics; metrics+query log;
//      metrics+trace+query log; flight recorder alone; everything plus the
//      flight recorder — and wall-clock ratios recorded as
//      telemetry.overhead.e2e_ratio{,_fr,_full_fr}. The repo's acceptance
//      bar is every ratio within 5% of off.
//
// Gates are toggled in-process through the *ForTesting overrides, so one
// binary measures both sides with identical code and data.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/ce/factory.h"
#include "src/storage/datagen.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/query_log.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/workload/generator.h"

namespace {

using namespace lce;

// Keeps the compiler from eliding the measured loop body.
template <typename T>
inline void Consume(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Best-of-reps ns per iteration of `body(iters)`. `between` runs untimed
// between reps (trace clear, so "on" reps don't accumulate unbounded span
// buffers).
double TimeNsPerOp(int reps, int iters, const std::function<void(int)>& body,
                   const std::function<void()>& between = {}) {
  body(iters / 10 + 1);  // warm-up: handle caches, span buffer registration
  if (between) between();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    body(iters);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(t1 - t0).count() * 1e9 /
                        iters);
    if (between) between();
  }
  return best;
}

struct PrimitiveCost {
  const char* name;
  double off_ns = 0;
  double on_ns = 0;
};

// All gates off for the "off" side; LCE_METRICS (and, for span primitives,
// LCE_TRACE) forced on for the "on" side.
std::vector<PrimitiveCost> MeasurePrimitives(const std::string& trace_path) {
  using telemetry::MetricsRegistry;
  std::vector<PrimitiveCost> costs;
  // The flight recorder defaults on; pin it off so the other primitives'
  // "off" sides measure the pure gate cost. Its own row toggles it back.
  telemetry::SetFlightRecorderEnabledForTesting(0);
  auto& registry = MetricsRegistry::Global();
  telemetry::Counter& counter = registry.counter("bench.overhead.counter");
  telemetry::Histogram& hist = registry.histogram("bench.overhead.hist");

  auto clear_trace = [] { telemetry::ClearTraceForTesting(); };
  auto measure = [&](const char* name, const std::function<void(int)>& body,
                     bool needs_trace) {
    PrimitiveCost c;
    c.name = name;
    telemetry::SetMetricsEnabledForTesting(0);
    telemetry::SetTracePathForTesting("");
    c.off_ns = TimeNsPerOp(5, 200000, body, clear_trace);
    telemetry::SetMetricsEnabledForTesting(1);
    if (needs_trace) telemetry::SetTracePathForTesting(trace_path.c_str());
    c.on_ns = TimeNsPerOp(5, 200000, body, clear_trace);
    telemetry::SetMetricsEnabledForTesting(-1);
    telemetry::SetTracePathForTesting(nullptr);
    clear_trace();
    costs.push_back(c);
  };

  measure("counter_add", [&](int n) {
    for (int i = 0; i < n; ++i) counter.Increment();
  }, false);
  measure("hist_observe", [&](int n) {
    for (int i = 0; i < n; ++i) hist.Observe(static_cast<double>(i & 1023));
  }, false);
  measure("scoped_phase", [&](int n) {
    for (int i = 0; i < n; ++i) {
      telemetry::ScopedPhase phase("bench/overhead");
      Consume(i);
    }
  }, false);
  measure("trace_span", [&](int n) {
    for (int i = 0; i < n; ++i) {
      telemetry::TraceSpan span("bench/overhead_span");
      Consume(i);
    }
  }, true);
  measure("stage_timer", [&](int n) {
    for (int i = 0; i < n; ++i) {
      telemetry::StageTimer stages([] { return std::string("BenchModel"); });
      stages.Stage("encode");
      Consume(i);
      stages.Stage("forward");
      Consume(i);
    }
  }, false);

  // fr_record: a realistic ForensicRecord (two tables, two predicates with
  // attributed selectivities) through FlightRecorder::Append — the full copy,
  // hash fill, seqlock publish, and trigger checks. Gated by the recorder's
  // own knob rather than LCE_METRICS, so this row toggles that instead.
  {
    telemetry::ForensicRecord proto;
    telemetry::SetFrName(proto.estimator, sizeof(proto.estimator),
                         "BenchModel");
    telemetry::SetFrName(proto.scope, sizeof(proto.scope), "bench");
    proto.estimate = 123.0;
    proto.truth = 120.0;
    proto.qerror = 1.025;
    proto.latency_us = 42.0;
    proto.num_tables = 2;
    proto.tables_recorded = 2;
    proto.tables[0] = 0;
    proto.tables[1] = 1;
    proto.num_joins = 1;
    proto.num_predicates = 2;
    proto.preds_recorded = 2;
    for (int16_t p = 0; p < 2; ++p) {
      proto.preds[p] = {p, 3, 10, 1000, 0.25};
    }
    PrimitiveCost c;
    c.name = "fr_record";
    auto body = [&](int n) {
      for (int i = 0; i < n; ++i) {
        telemetry::ForensicRecord rec = proto;  // callers build fresh records
        Consume(telemetry::FlightRecorder::Global().Append(rec));
      }
    };
    c.off_ns = TimeNsPerOp(5, 200000, body, clear_trace);
    telemetry::SetFlightRecorderEnabledForTesting(1);
    c.on_ns = TimeNsPerOp(5, 200000, body, clear_trace);
    telemetry::SetFlightRecorderEnabledForTesting(0);
    costs.push_back(c);
  }
  return costs;
}

// One pass of the end-to-end shape: build and evaluate one estimator per
// family, mirroring bench_r2's composition (traditional, sampling, flat NN,
// set NN, GBDT, autoregressive) so the measured ratio stands in for the
// full run. Returns seconds.
double RunE2eOnce(const bench::BenchDb& db, const ce::NeuralOptions& neural) {
  auto t0 = std::chrono::steady_clock::now();
  for (const char* name :
       {"Histogram", "Sampling", "FCN", "MSCN", "LW-XGB", "Naru"}) {
    bench::EstimatorRun run = bench::RunEstimator(name, db, neural);
    LCE_CHECK_MSG(run.ok, std::string(name) + " failed in overhead bench");
    Consume(run.accuracy.summary.p95);
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  bench::BenchRun harness("telemetry_overhead");
  bench::PrintHeader(
      "telemetry_overhead", "cost of always-on telemetry",
      "off-path primitives a few ns; full-telemetry e2e ratio near 1.0");

  const std::string scratch_trace =
      bench::BenchOutPath("telemetry_overhead_scratch_trace.json");
  const std::string scratch_qlog =
      bench::BenchOutPath("telemetry_overhead_scratch_queries.jsonl");

  std::vector<PrimitiveCost> costs = MeasurePrimitives(scratch_trace);

  // --- end-to-end: identical workload, gates off vs all on ----------------
  bench::BenchConfig cfg;
  cfg.train_queries = 250;
  cfg.test_queries = 160;  // eval is where per-query telemetry bites
  cfg.max_joins = 2;
  ce::NeuralOptions neural = bench::BenchNeuralOptions();
  neural.epochs = 6;
  bench::BenchDb db =
      bench::MakeBenchDb(storage::datagen::ImdbLikeSpec(0.04), cfg);

  // Gate combinations measured end to end, cheapest to priciest: metrics
  // alone, metrics + query log, everything including span tracing, the
  // flight recorder alone, and everything plus the flight recorder. The
  // recorder defaults on, so the off baseline pins it off explicitly.
  auto set_gates = [&](bool metrics, bool trace, bool qlog, bool fr) {
    telemetry::SetMetricsEnabledForTesting(metrics ? 1 : 0);
    telemetry::SetTracePathForTesting(trace ? scratch_trace.c_str() : "");
    telemetry::SetQueryLogPathForTesting(qlog ? scratch_qlog.c_str() : "");
    telemetry::SetFlightRecorderEnabledForTesting(fr ? 1 : 0);
  };
  auto restore_gates = [] {
    telemetry::ClearTraceForTesting();
    telemetry::SetMetricsEnabledForTesting(-1);
    telemetry::SetTracePathForTesting(nullptr);
    telemetry::SetQueryLogPathForTesting(nullptr);
    telemetry::SetFlightRecorderEnabledForTesting(-1);
  };

  // Alternate the configurations and keep the best of each: OS noise is
  // strictly additive, so per-config minima converge to the true floors,
  // and interleaving keeps one-time costs (allocator growth, column sort
  // caches) from inflating whichever side runs first.
  double off_seconds = 1e300, metrics_seconds = 1e300, qlog_seconds = 1e300,
         on_seconds = 1e300, fr_seconds = 1e300, full_fr_seconds = 1e300;
  for (int round = 0; round < 6; ++round) {
    set_gates(false, false, false, false);
    off_seconds = std::min(off_seconds, RunE2eOnce(db, neural));
    set_gates(true, false, false, false);
    metrics_seconds = std::min(metrics_seconds, RunE2eOnce(db, neural));
    set_gates(true, false, true, false);
    qlog_seconds = std::min(qlog_seconds, RunE2eOnce(db, neural));
    set_gates(true, true, true, false);
    on_seconds = std::min(on_seconds, RunE2eOnce(db, neural));
    set_gates(false, false, false, true);
    fr_seconds = std::min(fr_seconds, RunE2eOnce(db, neural));
    set_gates(true, true, true, true);
    full_fr_seconds = std::min(full_fr_seconds, RunE2eOnce(db, neural));
    telemetry::ClearTraceForTesting();
  }
  restore_gates();
  double ratio = off_seconds > 0 ? on_seconds / off_seconds : 0.0;
  double ratio_fr = off_seconds > 0 ? fr_seconds / off_seconds : 0.0;
  double ratio_full_fr =
      off_seconds > 0 ? full_fr_seconds / off_seconds : 0.0;

  // --- report -------------------------------------------------------------
  auto& registry = telemetry::MetricsRegistry::Global();
  std::printf("\n%-16s %12s %12s\n", "primitive", "off ns/op", "on ns/op");
  for (const PrimitiveCost& c : costs) {
    std::printf("%-16s %12.1f %12.1f\n", c.name, c.off_ns, c.on_ns);
    std::string prefix = std::string("telemetry.overhead.") + c.name;
    registry.gauge(prefix + "_off").SetAlways(c.off_ns);
    registry.gauge(prefix + "_on").SetAlways(c.on_ns);
  }
  std::printf(
      "\ne2e: off %.3fs, +metrics %.3fs, +query log %.3fs, "
      "+trace %.3fs, recorder-only %.3fs, full+recorder %.3fs\n"
      "     full/off %.3f, recorder/off %.3f, full+recorder/off %.3f\n",
      off_seconds, metrics_seconds, qlog_seconds, on_seconds, fr_seconds,
      full_fr_seconds, ratio, ratio_fr, ratio_full_fr);
  registry.gauge("telemetry.overhead.e2e_off_seconds").SetAlways(off_seconds);
  registry.gauge("telemetry.overhead.e2e_metrics_seconds")
      .SetAlways(metrics_seconds);
  registry.gauge("telemetry.overhead.e2e_qlog_seconds")
      .SetAlways(qlog_seconds);
  registry.gauge("telemetry.overhead.e2e_on_seconds").SetAlways(on_seconds);
  registry.gauge("telemetry.overhead.e2e_fr_seconds").SetAlways(fr_seconds);
  registry.gauge("telemetry.overhead.e2e_full_fr_seconds")
      .SetAlways(full_fr_seconds);
  registry.gauge("telemetry.overhead.e2e_ratio").SetAlways(ratio);
  registry.gauge("telemetry.overhead.e2e_ratio_fr").SetAlways(ratio_fr);
  registry.gauge("telemetry.overhead.e2e_ratio_full_fr")
      .SetAlways(ratio_full_fr);
  if (ratio > 1.05) {
    LCE_LOG(WARN) << "full telemetry overhead ratio " << ratio
                  << " exceeds the 1.05 target";
  }
  if (ratio_full_fr > 1.05) {
    LCE_LOG(WARN) << "full telemetry + flight recorder overhead ratio "
                  << ratio_full_fr << " exceeds the 1.05 target";
  }
  return 0;
}
