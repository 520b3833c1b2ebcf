#include "src/util/telemetry/flight_recorder.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/ce/explain.h"
#include "src/ce/factory.h"
#include "src/ce/traditional/histogram.h"
#include "src/eval/metrics.h"
#include "src/query/query.h"
#include "src/storage/datagen.h"
#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lce {
namespace telemetry {
namespace {

json::JsonValue ParseOrDie(const std::string& text) {
  json::JsonValue v;
  std::string error;
  EXPECT_TRUE(json::Parse(text, &v, &error)) << error << "\n" << text;
  return v;
}

json::JsonValue ReadJsonFile(const std::string& path) {
  std::string text;
  EXPECT_TRUE(fs::ReadFileToString(path, &text).ok()) << path;
  return ParseOrDie(text);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::string text;
  EXPECT_TRUE(fs::ReadFileToString(path, &text).ok()) << path;
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<json::JsonValue> ReadJsonl(const std::string& path) {
  std::vector<json::JsonValue> out;
  for (const std::string& line : ReadLines(path)) {
    out.push_back(ParseOrDie(line));
  }
  return out;
}

ForensicRecord MakeRecord(double qerror, double latency_us = 10.0) {
  ForensicRecord rec;
  SetFrName(rec.estimator, sizeof(rec.estimator), "TestModel");
  SetFrName(rec.scope, sizeof(rec.scope), "test");
  rec.estimate = 100.0 * qerror;
  rec.truth = 100.0;
  rec.qerror = qerror;
  rec.latency_us = latency_us;
  rec.num_tables = 1;
  rec.tables_recorded = 1;
  rec.tables[0] = 0;
  rec.num_predicates = 2;
  rec.preds_recorded = 2;
  rec.preds[0] = {0, 1, 5, 50, 0.25};
  rec.preds[1] = {0, 2, -10, 10, -1.0};
  return rec;
}

// The recorder is a process-wide singleton; each test pins every knob (the
// query log off), resets the ring, and points bundles at a private temp dir.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "lce_fr_" + info->name();
    std::filesystem::remove_all(root_);
    FlightRecorder& fr = FlightRecorder::Global();
    SetFlightRecorderEnabledForTesting(1);
    SetQueryLogPathForTesting("");
    fr.SetBundleRootForTesting(root_.c_str());
    fr.SetQerrTriggerForTesting(0);
    fr.SetLatencyTriggerForTesting(0);
    fr.SetDriftTriggerForTesting(0);
    fr.SetMaxBundlesForTesting(8);
    fr.ResetForTesting();
  }
  void TearDown() override {
    FlightRecorder& fr = FlightRecorder::Global();
    fr.ResetForTesting();
    fr.SetBundleRootForTesting(nullptr);
    fr.SetQerrTriggerForTesting(-1);
    fr.SetLatencyTriggerForTesting(-1);
    fr.SetDriftTriggerForTesting(-1);
    fr.SetMaxBundlesForTesting(-1);
    SetFlightRecorderEnabledForTesting(-1);
    SetQueryLogPathForTesting(nullptr);
    std::filesystem::remove_all(root_);
  }
  std::string root_;
};

TEST_F(FlightRecorderTest, AppendAssignsSeqAndTimestamp) {
  FlightRecorder& fr = FlightRecorder::Global();
  uint64_t s1 = fr.Append(MakeRecord(2.0));
  uint64_t s2 = fr.Append(MakeRecord(3.0));
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(fr.RecordCount(), 2u);
  std::vector<ForensicRecord> ring = fr.SnapshotRing();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].seq, 1u);
  EXPECT_EQ(ring[1].seq, 2u);
  EXPECT_GT(ring[0].ts_ns, 0);
  EXPECT_STREQ(ring[0].estimator, "TestModel");
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsAppends) {
  SetFlightRecorderEnabledForTesting(0);
  EXPECT_FALSE(FlightRecorderEnabled());
  EXPECT_EQ(FlightRecorder::Global().Append(MakeRecord(2.0)), 0u);
  EXPECT_EQ(FlightRecorder::Global().RecordCount(), 0u);
}

TEST_F(FlightRecorderTest, RingOverwritesOldestKeepsNewest) {
  FlightRecorder& fr = FlightRecorder::Global();
  const size_t slots = fr.RingSlots();
  const uint64_t total = slots + 37;
  for (uint64_t i = 0; i < total; ++i) {
    ForensicRecord rec = MakeRecord(1.0 + i);
    fr.Append(rec);
  }
  std::vector<ForensicRecord> ring = fr.SnapshotRing();
  ASSERT_EQ(ring.size(), slots);
  EXPECT_EQ(ring.front().seq, total - slots + 1);
  EXPECT_EQ(ring.back().seq, total);
}

TEST_F(FlightRecorderTest, SetFrNameSanitizesAndTruncates) {
  char buf[8];
  SetFrName(buf, sizeof(buf), "a\"b\\c\nd");
  EXPECT_STREQ(buf, "a_b_c_d");
  SetFrName(buf, sizeof(buf), "abcdefghijkl");
  EXPECT_STREQ(buf, "abcdefg");  // cap-1 chars + NUL
  SetFrName(buf, sizeof(buf), "");
  EXPECT_STREQ(buf, "");
}

TEST_F(FlightRecorderTest, FormatForensicRecordEmitsValidJson) {
  ForensicRecord rec = MakeRecord(12.5, 42.5);
  rec.seq = 7;
  rec.ts_ns = 1500000;
  rec.query_hash = 0x1234abcdull;
  rec.num_joins = 1;
  rec.num_fallbacks = 2;
  SetFrName(rec.fallback_site, sizeof(rec.fallback_site), "hist/oob");
  SetFrName(rec.stages[0].name, sizeof(rec.stages[0].name), "encode");
  rec.stages[0].micros = 3.25;
  SetFrName(rec.stages[1].name, sizeof(rec.stages[1].name), "forward");
  rec.stages[1].micros = 0.0;  // zero-duration stages must serialize cleanly
  rec.stages_recorded = 2;

  std::string line;
  AppendRecordJson(rec, &line);
  json::JsonValue v = ParseOrDie(line);
  EXPECT_DOUBLE_EQ(v.Find("seq")->number, 7);
  EXPECT_DOUBLE_EQ(v.Find("ts_ms")->number, 1.5);
  EXPECT_EQ(v.Find("kind")->string, "estimate");
  EXPECT_EQ(v.Find("estimator")->string, "TestModel");
  EXPECT_EQ(v.Find("query_hash")->string, "1234abcd");
  EXPECT_DOUBLE_EQ(v.Find("qerror")->number, 12.5);
  EXPECT_DOUBLE_EQ(v.Find("latency_us")->number, 42.5);
  ASSERT_EQ(v.Find("preds")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(v.Find("preds")->array[0].Find("sel")->number, 0.25);
  // Unattributed selectivity (< 0 sentinel) serializes as null.
  EXPECT_EQ(v.Find("preds")->array[1].Find("sel")->kind,
            json::JsonValue::Kind::kNull);
  ASSERT_EQ(v.Find("stages")->array.size(), 2u);
  EXPECT_EQ(v.Find("stages")->array[0].Find("s")->string, "encode");
  EXPECT_DOUBLE_EQ(v.Find("stages")->array[1].Find("us")->number, 0.0);
  EXPECT_DOUBLE_EQ(v.Find("fallbacks")->number, 2);
  EXPECT_EQ(v.Find("fallback_site")->string, "hist/oob");

  // Truth < 0 ("unknown") serializes as null; kind 'x' reads "exec".
  rec.truth = -1;
  rec.qerror = -1;
  rec.kind = 'x';
  line.clear();
  AppendRecordJson(rec, &line);
  v = ParseOrDie(line);
  EXPECT_EQ(v.Find("truth")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("kind")->string, "exec");
}

// The writer keeps at least 12 significant digits, whatever the exponent,
// and writes what JSON cannot hold as null.
TEST_F(FlightRecorderTest, DoublesKeepTwelveDigitsAndNonFiniteIsNull) {
  auto written = [](const ForensicRecord& rec) {
    std::string line;
    AppendRecordJson(rec, &line);
    return ParseOrDie(line);
  };
  ForensicRecord rec = MakeRecord(2.0);
  rec.estimate = 12.3456789;
  rec.latency_us = 3.25e-5;
  json::JsonValue v = written(rec);
  EXPECT_NEAR(v.Find("estimate")->number, 12.3456789, 1e-9 * 12.3456789);
  EXPECT_NEAR(v.Find("latency_us")->number, 3.25e-5, 1e-9 * 3.25e-5);
  for (double x : {1.0, 0.1, 2.0 / 3.0, 123456789.123456, 1e-4, 9.99999e-5,
                   0.000123456789012, 999999999999999.0, 1e15, 6.02214076e23,
                   1.7976931348623157e308, 4.9e-324, 2.2250738585072014e-308,
                   98765.4321e-200}) {
    rec.estimate = x;
    double got = written(rec).Find("estimate")->number;
    EXPECT_NEAR(got, x, 1e-12 * x) << x;
    rec.estimate = -x;
    EXPECT_NEAR(written(rec).Find("estimate")->number, -x, 1e-12 * x) << -x;
  }
  rec.estimate = std::numeric_limits<double>::quiet_NaN();
  rec.latency_us = std::numeric_limits<double>::infinity();
  rec.qerror = std::numeric_limits<double>::infinity();
  rec.stages_recorded = 1;
  SetFrName(rec.stages[0].name, sizeof(rec.stages[0].name), "encode");
  rec.stages[0].micros = -std::numeric_limits<double>::infinity();
  v = written(rec);
  EXPECT_EQ(v.Find("estimate")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("latency_us")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("qerror")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("stages")->array[0].Find("us")->kind,
            json::JsonValue::Kind::kNull);
}

// One query hash: every record carries query::Fingerprint of the whole IR,
// so one query scored by two estimators shares it, and queries that differ
// only past the recorded predicates, or only in a join edge, do not.
TEST_F(FlightRecorderTest, BuilderHashesTheWholeQueryIr) {
  FlightRecorder& fr = FlightRecorder::Global();
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(4000, 20, 0.0, 0.0), 21);
  workload::WorkloadOptions opts;
  opts.max_joins = 0;
  workload::WorkloadGenerator gen(db.get(), opts);
  Rng rng(22);
  auto test = gen.GenerateLabeled(1, &rng);
  for (const char* name : {"Histogram", "MultiHist"}) {
    auto est = ce::MakeEstimator(name, ce::NeuralOptions{}, 1);
    ASSERT_TRUE(est->Build(*db, {}).ok()) << name;
    eval::MeasureEstimateLatency(est.get(), test, 1);
  }
  std::vector<ForensicRecord> ring = fr.SnapshotRing();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_STRNE(ring[0].estimator, ring[1].estimator);
  EXPECT_EQ(ring[0].query_hash, query::Fingerprint(test[0].q));
  EXPECT_EQ(ring[1].query_hash, query::Fingerprint(test[0].q));

  auto hash = [](const query::Query& q) {
    return ce::MakeForensicRecord("X", q, 1, -1, -1, -1, nullptr).query_hash;
  };
  query::Query seven;
  seven.tables = {0};
  for (int i = 0; i < kFrMaxPredicates + 1; ++i) {
    seven.predicates.push_back({{0, i % 2}, i, 100 + i});
  }
  query::Query seventh_differs = seven;
  seventh_differs.predicates.back().hi += 1;
  EXPECT_NE(hash(seven), hash(seventh_differs));

  query::Query joined;
  joined.tables = {0, 1};
  joined.join_edges = {0};
  query::Query other_edge = joined;
  other_edge.join_edges = {1};
  EXPECT_NE(hash(joined), hash(other_edge));
}

// The query log is a tail of the ring: the line it holds for a record is
// the line ring.jsonl holds for the same seq, byte for byte.
TEST_F(FlightRecorderTest, QueryLogLineMatchesRingLine) {
  FlightRecorder& fr = FlightRecorder::Global();
  const std::string log = root_ + "/query_log.jsonl";
  SetQueryLogPathForTesting(log.c_str());
  ForensicRecord rec = MakeRecord(12.3456789, 42.125);
  SetFrName(rec.fallback_site, sizeof(rec.fallback_site), "hist/oob");
  rec.num_fallbacks = 1;
  SetFrName(rec.stages[0].name, sizeof(rec.stages[0].name), "encode");
  rec.stages[0].micros = 3.25e-5;
  rec.stages_recorded = 1;
  fr.Append(rec);
  fr.Append(MakeRecord(3.0), /*trigger_eligible=*/false);
  ASSERT_TRUE(fr.TriggerManualBundle("line check").ok());
  ASSERT_TRUE(FlushQueryLog().ok());
  EXPECT_EQ(QueryLogLines(), 2u);

  std::vector<BundleInfo> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  std::vector<std::string> ring = ReadLines(bundles[0].path + "/ring.jsonl");
  std::vector<std::string> logged = ReadLines(log);
  ASSERT_EQ(ring.size(), 2u);
  ASSERT_EQ(logged.size(), 2u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_DOUBLE_EQ(ParseOrDie(logged[i]).Find("seq")->number,
                     static_cast<double>(i + 1));
    EXPECT_EQ(logged[i], ring[i]);
  }
}

// Concurrent producers with the log on: every append becomes exactly one
// parseable line, and no seq is handed out twice.
TEST_F(FlightRecorderTest, ConcurrentAppendsLogEveryRecordOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  const std::string log = root_ + "/concurrent.jsonl";
  SetQueryLogPathForTesting(log.c_str());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightRecorder::Global().Append(MakeRecord(1.0 + t + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(FlushQueryLog().ok());
  std::vector<json::JsonValue> lines = ReadJsonl(log);
  ASSERT_EQ(lines.size(), size_t{kThreads * kPerThread});
  std::set<double> seqs;
  for (const json::JsonValue& line : lines) {
    seqs.insert(line.Find("seq")->number);
  }
  EXPECT_EQ(seqs.size(), size_t{kThreads * kPerThread});
  EXPECT_DOUBLE_EQ(*seqs.begin(), 1);
  EXPECT_DOUBLE_EQ(*seqs.rbegin(), kThreads * kPerThread);
}

TEST_F(FlightRecorderTest, QerrTriggerWritesValidatedBundle) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.SetQerrTriggerForTesting(100.0);
  // Context records are never trigger-eligible, however bad.
  fr.Append(MakeRecord(1e6), /*trigger_eligible=*/false);
  EXPECT_TRUE(fr.Bundles().empty());
  fr.Append(MakeRecord(2.0));  // eligible but under threshold
  EXPECT_TRUE(fr.Bundles().empty());

  uint64_t seq = fr.Append(MakeRecord(500.0));
  std::vector<BundleInfo> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].trigger, "qerr");
  EXPECT_EQ(bundles[0].seq, seq);

  json::JsonValue meta = ReadJsonFile(bundles[0].path + "/meta.json");
  EXPECT_GE(meta.Find("version")->number, 1);
  EXPECT_EQ(meta.Find("trigger")->string, "qerr");
  EXPECT_DOUBLE_EQ(meta.Find("offending_seq")->number,
                   static_cast<double>(seq));
  const json::JsonValue* off = meta.Find("offending");
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->Find("estimator")->string, "TestModel");
  EXPECT_DOUBLE_EQ(off->Find("qerror")->number, 500.0);
  EXPECT_DOUBLE_EQ(meta.Find("trigger_counts")->Find("qerr")->number, 1);

  std::vector<json::JsonValue> ring = ReadJsonl(bundles[0].path + "/ring.jsonl");
  ASSERT_EQ(ring.size(), 3u);  // context + good + offending
  EXPECT_DOUBLE_EQ(ring.back().Find("qerror")->number, 500.0);

  json::JsonValue metrics = ReadJsonFile(bundles[0].path + "/metrics.json");
  EXPECT_NE(metrics.Find("counters"), nullptr);
}

TEST_F(FlightRecorderTest, SameKindCooldownThrottlesBundles) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.SetQerrTriggerForTesting(100.0);
  fr.Append(MakeRecord(500.0));
  fr.Append(MakeRecord(600.0));  // within cooldown: suppressed
  EXPECT_EQ(fr.Bundles().size(), 1u);
  for (uint64_t i = 0; i < FlightRecorder::kSameKindCooldownRecords; ++i) {
    fr.Append(MakeRecord(2.0));
  }
  fr.Append(MakeRecord(700.0));  // past cooldown: second bundle
  EXPECT_EQ(fr.Bundles().size(), 2u);
}

TEST_F(FlightRecorderTest, MaxBundlesCapSuppresses) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.SetMaxBundlesForTesting(1);
  fr.Append(MakeRecord(2.0));
  ASSERT_TRUE(fr.TriggerManualBundle("first").ok());
  // Suppression is not an error: the run goes on, the counter records it.
  ASSERT_TRUE(fr.TriggerManualBundle("second").ok());
  EXPECT_EQ(fr.Bundles().size(), 1u);
}

TEST_F(FlightRecorderTest, LatencyTriggerArmsAfterWindowFills) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.SetLatencyTriggerForTesting(2.0);
  // A huge latency before the window fills must not trigger.
  fr.Append(MakeRecord(2.0, 100000.0));
  EXPECT_TRUE(fr.Bundles().empty());
  for (size_t i = 0; i < FlightRecorder::kLatencyWindow; ++i) {
    fr.Append(MakeRecord(2.0, 100.0));
  }
  fr.Append(MakeRecord(2.0, 100000.0));
  std::vector<BundleInfo> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].trigger, "latency");
}

TEST_F(FlightRecorderTest, DriftTriggerIsOptIn) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Append(MakeRecord(2.0));
  fr.TriggerDriftAlert("TestModel", 512.0, 64.0);
  EXPECT_TRUE(fr.Bundles().empty());
  fr.SetDriftTriggerForTesting(1);
  fr.TriggerDriftAlert("TestModel", 512.0, 64.0);
  std::vector<BundleInfo> bundles = fr.Bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].trigger, "drift");
  json::JsonValue meta = ReadJsonFile(bundles[0].path + "/meta.json");
  // No single offending record for a drift alert.
  EXPECT_EQ(meta.Find("offending")->kind, json::JsonValue::Kind::kNull);
  EXPECT_NE(meta.Find("detail")->string.find("TestModel"), std::string::npos);
}

TEST_F(FlightRecorderTest, ManifestJsonSectionRoundTrips) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Append(MakeRecord(2.0));
  ASSERT_TRUE(fr.TriggerManualBundle("manifest test").ok());
  std::string text;
  {
    JsonWriter w(&text);
    fr.WriteJson(&w);
  }
  json::JsonValue v = ParseOrDie(text);
  EXPECT_TRUE(v.Find("enabled")->boolean);
  EXPECT_DOUBLE_EQ(v.Find("records")->number, 1);
  EXPECT_DOUBLE_EQ(v.Find("triggers")->Find("manual")->number, 1);
  ASSERT_EQ(v.Find("bundles")->array.size(), 1u);
  EXPECT_EQ(v.Find("bundles")->array[0].Find("trigger")->string, "manual");
}

TEST_F(FlightRecorderTest, ResetForTestingClearsEverything) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Append(MakeRecord(2.0));
  ASSERT_TRUE(fr.TriggerManualBundle("before reset").ok());
  fr.ResetForTesting();
  EXPECT_EQ(fr.RecordCount(), 0u);
  EXPECT_TRUE(fr.SnapshotRing().empty());
  EXPECT_TRUE(fr.Bundles().empty());
}

TEST_F(FlightRecorderTest, ThreadStageSamplesFeedRecords) {
  internal::ResetThreadStageSamples();
  internal::NoteThreadStageSample("encode", 3.5);
  internal::NoteThreadStageSample("forward", 0.0);
  ForensicRecord rec = MakeRecord(2.0);
  FillStagesFromThread(&rec);
  ASSERT_EQ(rec.stages_recorded, 2);
  EXPECT_STREQ(rec.stages[0].name, "encode");
  EXPECT_DOUBLE_EQ(rec.stages[0].micros, 3.5);
  EXPECT_STREQ(rec.stages[1].name, "forward");
  // Non-consuming: a second record sees the same samples.
  ForensicRecord rec2 = MakeRecord(2.0);
  FillStagesFromThread(&rec2);
  EXPECT_EQ(rec2.stages_recorded, 2);
  // Capped at kFrMaxStages.
  for (int i = 0; i < kFrMaxStages + 3; ++i) {
    internal::NoteThreadStageSample("extra", 1.0);
  }
  FillStagesFromThread(&rec);
  EXPECT_EQ(rec.stages_recorded, kFrMaxStages);
  internal::ResetThreadStageSamples();
}

// End to end through the evaluation harness: a planted mis-estimate crosses
// the q-error trigger during EvaluateAccuracy and the bundle's offending
// record carries per-predicate selectivities and stage micros (the ISSUE's
// acceptance shape, minus the bench binary around it).
TEST_F(FlightRecorderTest, EvaluateAccuracyEnrichesOffendingQuery) {
  FlightRecorder& fr = FlightRecorder::Global();
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(8000, 30, 0.0, 0.0), 11);
  ce::HistogramEstimator est;
  ASSERT_TRUE(est.Build(*db, {}).ok());
  workload::WorkloadOptions opts;
  opts.max_joins = 0;
  workload::WorkloadGenerator gen(db.get(), opts);
  Rng rng(12);
  auto test = gen.GenerateLabeled(40, &rng);
  // Plant an impossible truth on the biggest query: the (correct) histogram
  // estimate then reads as a huge q-error against the trigger.
  size_t worst = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    if (test[i].cardinality > test[worst].cardinality) worst = i;
  }
  ASSERT_GT(test[worst].cardinality, 500);
  test[worst].cardinality = 1;

  fr.SetQerrTriggerForTesting(100.0);
  eval::AccuracyReport report = eval::EvaluateAccuracy(&est, test);
  ASSERT_EQ(report.qerrors.size(), test.size());

  std::vector<BundleInfo> bundles = fr.Bundles();
  ASSERT_GE(bundles.size(), 1u);
  json::JsonValue meta = ReadJsonFile(bundles[0].path + "/meta.json");
  const json::JsonValue* off = meta.Find("offending");
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->Find("estimator")->string, "Histogram");
  EXPECT_GE(off->Find("qerror")->number, 100.0);
  // Enrichment re-ran the estimate with diagnostics: every recorded
  // predicate carries an attributed selectivity and stages are present.
  ASSERT_GE(off->Find("preds")->array.size(), 1u);
  for (const json::JsonValue& p : off->Find("preds")->array) {
    EXPECT_EQ(p.Find("sel")->kind, json::JsonValue::Kind::kNumber);
  }
  EXPECT_GE(off->Find("stages")->array.size(), 1u);
}

// The fatal-signal path: the handler must write a parseable bundle and then
// re-raise, so the process still dies by the original signal.
TEST_F(FlightRecorderTest, SignalHandlerWritesBundleThenDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlightRecorder& fr = FlightRecorder::Global();
  std::filesystem::create_directories(root_);
  EXPECT_EXIT(
      {
        fr.SetBundleRootForTesting(root_.c_str());
        fr.InstallSignalHandlers();
        for (int i = 0; i < 5; ++i) {
          ForensicRecord rec = MakeRecord(2.0 + i);
          fr.Append(rec);
        }
        raise(SIGTERM);
      },
      ::testing::KilledBySignal(SIGTERM), "");

  // The child shares the filesystem: find its <unix-ts>-signal bundle.
  std::string bundle;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    std::string name = entry.path().filename().string();
    if (name.size() > 7 && name.substr(name.size() - 7) == "-signal") {
      bundle = entry.path().string();
    }
  }
  ASSERT_FALSE(bundle.empty()) << "no signal bundle under " << root_;
  json::JsonValue meta = ReadJsonFile(bundle + "/meta.json");
  EXPECT_EQ(meta.Find("trigger")->string, "signal");
  EXPECT_DOUBLE_EQ(meta.Find("signal")->number, SIGTERM);
  EXPECT_DOUBLE_EQ(meta.Find("records_total")->number, 5);
  std::vector<json::JsonValue> ring = ReadJsonl(bundle + "/ring.jsonl");
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring[0].Find("estimator")->string, "TestModel");
  EXPECT_DOUBLE_EQ(ring.back().Find("qerror")->number, 6.0);
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
