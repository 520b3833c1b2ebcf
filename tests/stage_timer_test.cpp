#include "src/util/telemetry/stage_timer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ce/query_driven/lwxgb_model.h"
#include "src/storage/datagen.h"
#include "src/util/rng.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lce {
namespace telemetry {
namespace {

HistogramSnapshot Snap(const std::string& name) {
  return MetricsRegistry::Global().histogram(name).Snapshot();
}

// Histograms are cumulative per process, so every test compares against a
// before-count and uses model names unique to this file.
class StageTimerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabledForTesting(1);
    SetFlightRecorderEnabledForTesting(0);
  }
  void TearDown() override {
    SetMetricsEnabledForTesting(-1);
    SetFlightRecorderEnabledForTesting(-1);
  }
};

TEST_F(StageTimerTest, NestedTimersAttributeToInnermost) {
  uint64_t outer0 = Snap("ce.NestOuter.stage.outer_work.micros").count;
  uint64_t inner0 = Snap("ce.NestInner.stage.inner_work.micros").count;
  uint64_t marked0 = Snap("ce.NestInner.stage.marked.micros").count;
  uint64_t after0 = Snap("ce.NestOuter.stage.after_inner.micros").count;
  {
    StageTimer outer([] { return std::string("NestOuter"); });
    outer.Stage("outer_work");
    {
      StageTimer inner([] { return std::string("NestInner"); });
      inner.Stage("inner_work");
      // Mark() from a shared helper lands on the innermost live timer.
      StageTimer::Mark("marked");
    }
    // With the inner timer gone, Mark() targets the outer one again.
    StageTimer::Mark("after_inner");
  }
  EXPECT_EQ(Snap("ce.NestOuter.stage.outer_work.micros").count - outer0, 1u);
  EXPECT_EQ(Snap("ce.NestInner.stage.inner_work.micros").count - inner0, 1u);
  EXPECT_EQ(Snap("ce.NestInner.stage.marked.micros").count - marked0, 1u);
  EXPECT_EQ(Snap("ce.NestOuter.stage.after_inner.micros").count - after0, 1u);
}

TEST_F(StageTimerTest, ZeroDurationStagesRecordCleanly) {
  const std::string name = "ce.ZeroStage.stage.a.micros";
  uint64_t before = Snap(name).count;
  {
    StageTimer t([] { return std::string("ZeroStage"); });
    t.Stage("a");
    t.Stage("b");  // closes "a" with (near-)zero elapsed time
  }
  HistogramSnapshot s = Snap(name);
  EXPECT_EQ(s.count - before, 1u);
  EXPECT_GE(s.min, 0.0);
}

TEST_F(StageTimerTest, AllGatesOffTimerIsInert) {
  SetMetricsEnabledForTesting(0);
  const std::string name = "ce.InertModel.stage.a.micros";
  uint64_t before = Snap(name).count;
  bool name_materialized = false;
  {
    StageTimer t([&] {
      name_materialized = true;
      return std::string("InertModel");
    });
    t.Stage("a");
    StageTimer::Mark("b");
  }
  StageTimer::Mark("orphan");  // no live timer anywhere: no-op
  EXPECT_FALSE(name_materialized);
  EXPECT_EQ(Snap(name).count, before);
}

TEST_F(StageTimerTest, BatchWeightScalesObservationCount) {
  const std::string stage_name = "ce.BatchModel.stage.bulk.micros";
  const std::string lat_name = "ce.BatchModel.latency.micros";
  uint64_t s0 = Snap(stage_name).count;
  uint64_t l0 = Snap(lat_name).count;
  {
    StageTimer t([] { return std::string("BatchModel"); }, 16);
    t.Stage("bulk");
  }
  // Per-item micros observed with weight 16: batch and per-query paths
  // share one histogram scale.
  EXPECT_EQ(Snap(stage_name).count - s0, 16u);
  EXPECT_EQ(Snap(lat_name).count - l0, 16u);
}

TEST_F(StageTimerTest, EstimateBatchWeightsStagesPerQuery) {
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), wopts);
  Rng rng(7);
  auto labeled = gen.GenerateLabeled(40, &rng);
  ce::LwXgbEstimator est;
  ASSERT_TRUE(est.Build(*db, labeled).ok());
  std::vector<query::Query> queries;
  for (const auto& lq : labeled) queries.push_back(lq.q);

  const std::string encode = "ce.LW-XGB.stage.encode.micros";
  uint64_t before = Snap(encode).count;
  est.EstimateBatch(queries);
  EXPECT_EQ(Snap(encode).count - before, queries.size());
  est.EstimateCardinality(queries[0]);
  EXPECT_EQ(Snap(encode).count - before, queries.size() + 1);
}

TEST_F(StageTimerTest, FlightRecorderCaptureSpansNestedTimers) {
  SetMetricsEnabledForTesting(0);
  SetFlightRecorderEnabledForTesting(1);
  {
    StageTimer outer([] { return std::string("NestOuter"); });
    outer.Stage("outer_work");
    {
      StageTimer inner([] { return std::string("NestInner"); });
      inner.Stage("inner_work");
    }
  }
  ForensicRecord rec;
  FillStagesFromThread(&rec);
  // Nested timers append to the same query's capture; the inner stage
  // closes first, the outer on destruction.
  ASSERT_EQ(rec.stages_recorded, 2);
  EXPECT_STREQ(rec.stages[0].name, "inner_work");
  EXPECT_STREQ(rec.stages[1].name, "outer_work");
  EXPECT_GE(rec.stages[0].micros, 0.0);

  // A fresh top-level timer resets the capture to its own stages.
  {
    StageTimer t([] { return std::string("NestOuter"); });
    t.Stage("fresh");
  }
  ForensicRecord rec2;
  FillStagesFromThread(&rec2);
  ASSERT_EQ(rec2.stages_recorded, 1);
  EXPECT_STREQ(rec2.stages[0].name, "fresh");
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
