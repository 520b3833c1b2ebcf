#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/data_driven/naru.h"
#include "src/ce/traditional/histogram.h"
#include "src/eval/metrics.h"
#include "src/exec/executor.h"
#include "src/storage/datagen.h"
#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/workload/generator.h"

namespace lce {
namespace telemetry {
namespace {

std::vector<json::JsonValue> ReadJsonl(const std::string& path) {
  std::string text;
  EXPECT_TRUE(fs::ReadFileToString(path, &text).ok()) << path;
  std::vector<json::JsonValue> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      json::JsonValue v;
      std::string error;
      EXPECT_TRUE(json::Parse(text.substr(start, end - start), &v, &error))
          << error;
      out.push_back(std::move(v));
    }
    start = end + 1;
  }
  return out;
}

// The query log is the flight recorder's tail: every record
// FlightRecorder::Append receives is written as its ring.jsonl line.
class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "lce_query_log_test.jsonl";
    SetQueryLogPathForTesting(path_.c_str());
  }
  void TearDown() override { SetQueryLogPathForTesting(nullptr); }

  std::vector<query::LabeledQuery> HistogramWorkload(
      ce::HistogramEstimator* est, size_t n) {
    db_ = storage::datagen::Generate(
        storage::datagen::SyntheticPairSpec(10000, 40, 0.0, 0.0), 3);
    EXPECT_TRUE(est->Build(*db_, {}).ok());
    workload::WorkloadOptions opts;
    opts.max_joins = 0;
    workload::WorkloadGenerator gen(db_.get(), opts);
    Rng rng(4);
    return gen.GenerateLabeled(n, &rng);
  }

  std::string path_;
  std::unique_ptr<storage::Database> db_;
};

TEST_F(QueryLogTest, AppendFlushRoundTrip) {
  ForensicRecord rec;
  SetFrName(rec.estimator, sizeof(rec.estimator), "Histogram");
  rec.estimate = 10;
  FlightRecorder::Global().Append(rec);
  SetFrName(rec.estimator, sizeof(rec.estimator), "FCN");
  rec.estimate = 20;
  FlightRecorder::Global().Append(rec);
  EXPECT_EQ(QueryLogLines(), 2u);
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].Find("estimator")->string, "Histogram");
  EXPECT_EQ(lines[1].Find("estimator")->string, "FCN");
  EXPECT_DOUBLE_EQ(lines[1].Find("estimate")->number, 20);
}

TEST_F(QueryLogTest, DisabledSinkDropsAppends) {
  SetQueryLogPathForTesting("");
  EXPECT_FALSE(QueryLogEnabled());
  ForensicRecord rec;
  SetFrName(rec.estimator, sizeof(rec.estimator), "x");
  FlightRecorder::Global().Append(rec);
  EXPECT_EQ(QueryLogLines(), 0u);
}

TEST_F(QueryLogTest, MeasureEstimateLatencyStreamsRecords) {
  ce::HistogramEstimator est;
  auto test = HistogramWorkload(&est, 30);
  eval::LatencyReport report = eval::MeasureEstimateLatency(&est, test, 20);
  EXPECT_EQ(report.measured, 20u);
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), 20u);
  ce::HistogramEstimator twin;
  ASSERT_TRUE(twin.Build(*db_, {}).ok());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].Find("estimator")->string, "Histogram");
    EXPECT_EQ(lines[i].Find("kind")->string, "estimate");
    EXPECT_GE(lines[i].Find("latency_us")->number, 0.0);
    EXPECT_GE(lines[i].Find("qerror")->number, 1.0);
    EXPECT_DOUBLE_EQ(lines[i].Find("truth")->number, test[i].cardinality);
    // The logged estimate is the plain-path estimate (12 significant digits
    // through the serializer).
    double expected = twin.EstimateCardinality(test[i].q);
    EXPECT_NEAR(lines[i].Find("estimate")->number, expected,
                1e-9 * std::max(1.0, expected));
  }
}

TEST_F(QueryLogTest, ExecutorLogsOnlyWhenOptedIn) {
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(5000, 20, 0.0, 0.0), 5);
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 0, 9}};

  exec::Executor silent(db.get());
  double truth = silent.Cardinality(q);
  EXPECT_EQ(QueryLogLines(), 0u);

  exec::Executor oracle(db.get());
  oracle.EnableQueryLog();
  EXPECT_EQ(oracle.Cardinality(q), truth);
  EXPECT_EQ(QueryLogLines(), 1u);
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].Find("kind")->string, "exec");
  EXPECT_EQ(lines[0].Find("estimator")->string, "exec.oracle");
  EXPECT_DOUBLE_EQ(lines[0].Find("estimate")->number,
                   lines[0].Find("truth")->number);
  EXPECT_DOUBLE_EQ(lines[0].Find("qerror")->number, 1.0);
}

TEST_F(QueryLogTest, EstimatesUnchangedByLogging) {
  // A progressive-sampling estimator run through the instrumented latency
  // path must produce the same estimates a twin produces on the plain path
  // with the sink disabled.
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(8000, 30, 0.5, 0.3), 6);
  workload::WorkloadOptions opts;
  opts.max_joins = 0;
  workload::WorkloadGenerator gen(db.get(), opts);
  Rng rng(7);
  auto test = gen.GenerateLabeled(12, &rng);

  SetQueryLogPathForTesting("");  // sink off: plain path
  ce::NaruEstimator plain;
  ASSERT_TRUE(plain.Build(*db, {}).ok());
  std::vector<double> expected;
  for (const auto& lq : test) {
    expected.push_back(plain.EstimateCardinality(lq.q));
  }

  SetQueryLogPathForTesting(path_.c_str());  // sink on: diagnostics path
  ce::NaruEstimator logged;
  ASSERT_TRUE(logged.Build(*db, {}).ok());
  eval::MeasureEstimateLatency(&logged, test, test.size());
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    EXPECT_NEAR(lines[i].Find("estimate")->number, expected[i],
                1e-9 * std::max(1.0, expected[i]))
        << i;
  }
}

TEST_F(QueryLogTest, LogsWithTheRecorderOff) {
  SetFlightRecorderEnabledForTesting(0);
  ce::HistogramEstimator est;
  auto test = HistogramWorkload(&est, 30);
  eval::MeasureEstimateLatency(&est, test, 20);
  SetFlightRecorderEnabledForTesting(-1);
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), 20u);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_DOUBLE_EQ(lines[i].Find("seq")->number,
                     lines[0].Find("seq")->number + static_cast<double>(i));
    EXPECT_EQ(lines[i].Find("estimator")->string, "Histogram");
    EXPECT_DOUBLE_EQ(lines[i].Find("truth")->number, test[i].cardinality);
    EXPECT_GE(lines[i].Find("latency_us")->number, 0.0);
    // Stage capture follows the log, not only the ring.
    EXPECT_GE(lines[i].Find("stages")->array.size(), 1u);
  }
}

TEST_F(QueryLogTest, EvaluateAccuracyLogsEveryScoredQuery) {
  ce::HistogramEstimator est;
  auto test = HistogramWorkload(&est, 30);
  eval::AccuracyReport report = eval::EvaluateAccuracy(&est, test);
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(path_);
  ASSERT_EQ(lines.size(), test.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].Find("estimator")->string, "Histogram");
    EXPECT_EQ(lines[i].Find("kind")->string, "estimate");
    EXPECT_DOUBLE_EQ(lines[i].Find("truth")->number, test[i].cardinality);
    EXPECT_NEAR(lines[i].Find("qerror")->number, report.qerrors[i],
                1e-9 * report.qerrors[i]);
    // Context records of the accuracy scan are not timed.
    EXPECT_EQ(lines[i].Find("latency_us")->kind, json::JsonValue::Kind::kNull);
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%llx",
                  static_cast<unsigned long long>(
                      query::Fingerprint(test[i].q)));
    EXPECT_EQ(lines[i].Find("query_hash")->string, hash);
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
