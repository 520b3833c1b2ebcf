#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/ce/traditional/histogram.h"
#include "src/eval/metrics.h"
#include "src/storage/datagen.h"
#include "src/util/rng.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lce {
namespace telemetry {
namespace {

// Exact quantile with the same linear-interpolation convention the sketch
// documents: rank = q * (n - 1), interpolate between order statistics.
double ExactQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

TEST(WindowedQuantileSketchTest, MatchesExactQuantilesOverFullWindow) {
  Rng rng(11);
  std::vector<double> values;
  WindowedQuantileSketch sketch(200);
  for (int i = 0; i < 200; ++i) {
    double v = 1.0 + 50.0 * rng.Uniform();
    values.push_back(v);
    sketch.Observe(v);
  }
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), ExactQuantile(values, q)) << q;
  }
}

TEST(WindowedQuantileSketchTest, RollsOverToTrailingWindow) {
  Rng rng(12);
  std::vector<double> values;
  WindowedQuantileSketch sketch(50);
  for (int i = 0; i < 237; ++i) {
    double v = rng.Uniform() * 10.0;
    values.push_back(v);
    sketch.Observe(v);
  }
  EXPECT_TRUE(sketch.full());
  EXPECT_EQ(sketch.size(), 50u);
  EXPECT_EQ(sketch.count(), 237u);
  std::vector<double> tail(values.end() - 50, values.end());
  for (double q : {0.05, 0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), ExactQuantile(tail, q)) << q;
  }
}

TEST(WindowedQuantileSketchTest, WindowOneTracksLastObservation) {
  WindowedQuantileSketch sketch(1);
  EXPECT_EQ(sketch.window(), 1u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);  // empty
  sketch.Observe(3.0);
  EXPECT_TRUE(sketch.full());
  for (double v : {7.0, 2.0, 9.5}) {
    sketch.Observe(v);
    EXPECT_EQ(sketch.size(), 1u);
    // A one-element window: every quantile is the latest observation.
    EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), v);
    EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), v);
    EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), v);
  }
  EXPECT_EQ(sketch.count(), 4u);
}

TEST(WindowedQuantileSketchTest, ConstantStreamIsFlatAtEveryQuantile) {
  WindowedQuantileSketch sketch(16);
  for (int i = 0; i < 40; ++i) sketch.Observe(4.25);
  for (double q : {0.0, 0.01, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(q), 4.25) << q;
  }
}

TEST(WindowedQuantileSketchTest, ExtremeQuantilesClampToWindowMinMax) {
  WindowedQuantileSketch sketch(8);
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) sketch.Observe(v);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 9.0);
  // Out-of-range q clamps rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(sketch.Quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.5), 9.0);
}

TEST(DriftMonitorTest, AlertHistorySurvivesDraining) {
  DriftMonitor::Options opts;
  opts.window = 4;
  opts.threshold_p95 = 10.0;
  DriftMonitor monitor("history-test", opts);
  for (double v : {1.0, 1.0, 1.0, 1.0}) monitor.Observe(v);
  for (double v : {50.0, 50.0}) monitor.Observe(v);
  ASSERT_EQ(monitor.DrainAlerts().size(), 1u);
  EXPECT_TRUE(monitor.DrainAlerts().empty());  // queue consumed
  // The non-draining history still reports the crossing for manifests.
  std::vector<DriftAlert> history = monitor.AlertHistory();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].monitor, "history-test");
  EXPECT_GT(history[0].p95, 10.0);
  ASSERT_EQ(monitor.AlertHistory().size(), 1u);  // reads don't consume
}

TEST(DriftMonitorTest, EdgeTriggeredAlertsWithDetectionLag) {
  DriftMonitor::Options opts;
  opts.window = 4;
  opts.threshold_p95 = 10.0;
  DriftMonitor monitor("test", opts);

  // A non-full window never alerts, however high the values.
  DriftMonitor unarmed("unarmed", opts);
  unarmed.Observe(100.0);
  unarmed.Observe(100.0);
  EXPECT_TRUE(unarmed.DrainAlerts().empty());

  // Arming phase: low values fill the window without crossing.
  for (double v : {1.0, 1.0, 1.0, 1.0}) monitor.Observe(v);
  EXPECT_TRUE(monitor.DrainAlerts().empty());
  uint64_t drift_start = monitor.observations();

  // Degradation: one alert at the upward crossing, none while staying above.
  for (double v : {50.0, 50.0, 50.0, 50.0}) monitor.Observe(v);
  std::vector<DriftAlert> alerts = monitor.DrainAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].monitor, "test");
  EXPECT_GT(alerts[0].p95, 10.0);
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 10.0);
  // Detection lag: one 50 in a window of 4 already lifts the p95 past 10.
  EXPECT_EQ(alerts[0].observation - drift_start, 1u);

  // Recovery rearms the edge; the next crossing alerts again.
  for (double v : {1.0, 1.0, 1.0, 1.0}) monitor.Observe(v);
  EXPECT_TRUE(monitor.DrainAlerts().empty());
  for (double v : {80.0, 80.0, 80.0}) monitor.Observe(v);
  alerts = monitor.DrainAlerts();
  ASSERT_EQ(alerts.size(), 1u);
}

TEST(DriftMonitorTest, PublishesWindowGauges) {
  DriftMonitor::Options opts;
  opts.window = 8;
  DriftMonitor monitor("gauge-test", opts);
  for (int i = 1; i <= 8; ++i) monitor.Observe(static_cast<double>(i));
  double p95 =
      MetricsRegistry::Global().gauge("ce/gauge-test/qerr_p95_window").Value();
  double p50 =
      MetricsRegistry::Global().gauge("ce/gauge-test/qerr_p50_window").Value();
  EXPECT_DOUBLE_EQ(p95, monitor.WindowP95());
  EXPECT_DOUBLE_EQ(p50, monitor.WindowP50());
  EXPECT_GT(p95, p50);
}

TEST(DriftEnvTest, WindowOverrideControlsGlobalMonitors) {
  SetDriftWindowForTesting(16);
  EXPECT_TRUE(DriftEnabled());
  EXPECT_EQ(DriftWindow(), 16u);
  ResetDriftForTesting();
  DriftMonitor& mon = GlobalDriftMonitor("Histogram");
  EXPECT_EQ(mon.options().window, 16u);
  for (int i = 0; i < 20; ++i) mon.Observe(100.0);
  std::vector<DriftAlert> alerts = AllDriftAlertHistory();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].monitor, "Histogram");

  SetDriftWindowForTesting(-1);
  ResetDriftForTesting();
}

TEST(DriftEnvTest, EvaluateAccuracyFeedsGlobalMonitorWithoutChangingQerrors) {
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(10000, 40, 0.0, 0.0), 21);
  ce::HistogramEstimator est;
  ASSERT_TRUE(est.Build(*db, {}).ok());
  workload::WorkloadOptions opts;
  opts.max_joins = 0;
  workload::WorkloadGenerator gen(db.get(), opts);
  Rng rng(22);
  auto test = gen.GenerateLabeled(40, &rng);

  SetDriftWindowForTesting(0);  // off
  ResetDriftForTesting();
  eval::AccuracyReport off = eval::EvaluateAccuracy(&est, test);

  SetDriftWindowForTesting(10);  // on
  ResetDriftForTesting();
  eval::AccuracyReport on = eval::EvaluateAccuracy(&est, test);
  DriftMonitor& mon = GlobalDriftMonitor("Histogram");
  EXPECT_EQ(mon.observations(), test.size());
  EXPECT_GT(mon.WindowP95(), 0.0);

  // Monitoring observes q-errors; it never changes them.
  ASSERT_EQ(off.qerrors.size(), on.qerrors.size());
  for (size_t i = 0; i < off.qerrors.size(); ++i) {
    EXPECT_EQ(off.qerrors[i], on.qerrors[i]) << i;
  }

  SetDriftWindowForTesting(-1);
  ResetDriftForTesting();
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
