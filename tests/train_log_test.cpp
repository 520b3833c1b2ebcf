// Training-run observability: per-family training-log events (LCE_TRAIN_LOG),
// model cards, and the bit-identity guarantee with the gates unset.

#include "src/util/telemetry/train_log.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/storage/datagen.h"
#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/telemetry/model_card.h"
#include "src/util/telemetry/run_manifest.h"
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

// Every event shares the envelope; family-specific fields are checked by the
// individual tests.
void ExpectCommonSchema(const json::JsonValue& ev) {
  ASSERT_NE(ev.Find("model"), nullptr);
  EXPECT_FALSE(ev.Find("model")->string.empty());
  ASSERT_NE(ev.Find("family"), nullptr);
  ASSERT_NE(ev.Find("event"), nullptr);
  ASSERT_NE(ev.Find("index"), nullptr);
  ASSERT_NE(ev.Find("loss"), nullptr);
  ASSERT_NE(ev.Find("wall_s"), nullptr);
  EXPECT_GE(ev.Find("wall_s")->number, 0.0);
}

class TrainLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "lce_train_log_test.jsonl";
    SetTrainLogPathForTesting(path_.c_str());
    TrainLog::Global().ResetForTesting();
    ModelCardRegistry::Global().ResetForTesting();
  }
  void TearDown() override {
    SetTrainLogPathForTesting(nullptr);
    TrainLog::Global().ResetForTesting();
    ModelCardRegistry::Global().ResetForTesting();
  }

  // A small labeled workload shared by the query-driven families.
  void MakeWorkload() {
    db_ = storage::datagen::Generate(
        storage::datagen::SyntheticPairSpec(6000, 30, 0.3, 0.2), 11);
    workload::WorkloadOptions opts;
    opts.max_joins = 0;
    workload::WorkloadGenerator gen(db_.get(), opts);
    Rng rng(5);
    train_ = gen.GenerateLabeled(60, &rng);
    test_ = gen.GenerateLabeled(15, &rng);
  }

  std::vector<json::JsonValue> FlushAndRead() {
    EXPECT_TRUE(TrainLog::Global().Flush().ok());
    return ReadJsonl(path_);
  }

  std::string path_;
  std::unique_ptr<storage::Database> db_;
  std::vector<query::LabeledQuery> train_;
  std::vector<query::LabeledQuery> test_;
};

TEST_F(TrainLogTest, DisabledSinkDropsRecords) {
  SetTrainLogPathForTesting("");
  EXPECT_FALSE(TrainLogEnabled());
  TrainingEvent ev;
  ev.family = "nn";
  ev.event = "epoch";
  RecordTrainingEvent(std::move(ev));
  EXPECT_EQ(TrainLog::Global().events_recorded(), 0u);
}

TEST_F(TrainLogTest, EventSerializationUsesNullForUnset) {
  TrainingEvent ev;
  ev.model = "M";
  ev.family = "nn";
  ev.event = "epoch";
  ev.index = 3;
  ev.loss = 0.5;
  // grad_norm / lr / examples / wall stay unset.
  json::JsonValue v;
  std::string error;
  ASSERT_TRUE(json::Parse(ev.ToJsonLine(), &v, &error)) << error;
  EXPECT_DOUBLE_EQ(v.Find("loss")->number, 0.5);
  EXPECT_EQ(v.Find("grad_norm")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("lr")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("examples")->kind, json::JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("rows_per_sec")->kind, json::JsonValue::Kind::kNull);
}

TEST_F(TrainLogTest, NeuralEpochEventsAndModelCard) {
  MakeWorkload();
  ce::NeuralOptions n;
  n.hidden_dim = 8;
  n.epochs = 4;
  auto est = ce::MakeEstimator("FCN", n, 3);
  ASSERT_TRUE(est->Build(*db_, train_).ok());
  std::vector<json::JsonValue> lines = FlushAndRead();
  ASSERT_EQ(lines.size(), 4u);
  for (size_t i = 0; i < lines.size(); ++i) {
    ExpectCommonSchema(lines[i]);
    EXPECT_EQ(lines[i].Find("family")->string, "nn");
    EXPECT_EQ(lines[i].Find("event")->string, "epoch");
    EXPECT_EQ(lines[i].Find("model")->string, "FCN");
    EXPECT_DOUBLE_EQ(lines[i].Find("index")->number,
                     static_cast<double>(i));
    EXPECT_TRUE(std::isfinite(lines[i].Find("loss")->number));
    EXPECT_GE(lines[i].Find("grad_norm")->number, 0.0);
    EXPECT_GT(lines[i].Find("lr")->number, 0.0);
    EXPECT_DOUBLE_EQ(lines[i].Find("examples")->number,
                     static_cast<double>(train_.size()));
  }

  ModelCard card;
  est->DescribeModel(&card);
  EXPECT_EQ(card.model, "FCN");
  EXPECT_EQ(card.family, "nn");
  EXPECT_GT(card.parameter_count, 0);
  EXPECT_GT(card.footprint_bytes, 0);
  EXPECT_EQ(card.train_examples, static_cast<int64_t>(train_.size()));
  EXPECT_EQ(card.epochs, 4);
  EXPECT_GE(card.final_train_loss, 0.0);
}

TEST_F(TrainLogTest, GbdtRoundEventsAndModelCard) {
  MakeWorkload();
  auto est = ce::MakeEstimator("LW-XGB", {}, 3);
  ASSERT_TRUE(est->Build(*db_, train_).ok());
  std::vector<json::JsonValue> lines = FlushAndRead();
  ASSERT_GT(lines.size(), 0u);
  for (const json::JsonValue& ev : lines) {
    ExpectCommonSchema(ev);
    EXPECT_EQ(ev.Find("family")->string, "gbdt");
    EXPECT_EQ(ev.Find("event")->string, "round");
    EXPECT_GE(ev.Find("loss")->number, 0.0);
    const json::JsonValue* extra = ev.Find("extra");
    ASSERT_NE(extra, nullptr);
    EXPECT_GT(extra->Find("tree_nodes")->number, 0.0);
  }

  ModelCard card;
  est->DescribeModel(&card);
  EXPECT_EQ(card.family, "gbdt");
  EXPECT_GT(card.parameter_count, 0);
  EXPECT_EQ(card.epochs, static_cast<int64_t>(lines.size()));
}

TEST_F(TrainLogTest, SpnPhaseEventsAndModelCard) {
  MakeWorkload();
  auto est = ce::MakeEstimator("DeepDB-SPN", {}, 3);
  ASSERT_TRUE(est->Build(*db_, {}).ok());
  std::vector<json::JsonValue> lines = FlushAndRead();
  ASSERT_GT(lines.size(), 0u);
  std::set<std::string> phases;
  for (const json::JsonValue& ev : lines) {
    ExpectCommonSchema(ev);
    EXPECT_EQ(ev.Find("family")->string, "spn");
    EXPECT_EQ(ev.Find("event")->string, "phase");
    phases.insert(ev.Find("phase")->string);
  }
  EXPECT_TRUE(phases.count("sample_bin"));
  EXPECT_TRUE(phases.count("structure"));

  ModelCard card;
  est->DescribeModel(&card);
  EXPECT_EQ(card.family, "spn");
  EXPECT_GT(card.parameter_count, 0);
  EXPECT_GT(card.train_examples, 0);
}

TEST_F(TrainLogTest, BayesNetPhaseEventsAndModelCard) {
  MakeWorkload();
  auto est = ce::MakeEstimator("BayesNet", {}, 3);
  ASSERT_TRUE(est->Build(*db_, {}).ok());
  std::vector<json::JsonValue> lines = FlushAndRead();
  ASSERT_GT(lines.size(), 0u);
  std::set<std::string> phases;
  for (const json::JsonValue& ev : lines) {
    ExpectCommonSchema(ev);
    EXPECT_EQ(ev.Find("family")->string, "bayesnet");
    EXPECT_EQ(ev.Find("event")->string, "phase");
    phases.insert(ev.Find("phase")->string);
  }
  EXPECT_TRUE(phases.count("sample_bin"));
  EXPECT_TRUE(phases.count("structure"));
  EXPECT_TRUE(phases.count("cpt"));

  ModelCard card;
  est->DescribeModel(&card);
  EXPECT_EQ(card.family, "bayesnet");
  EXPECT_GT(card.parameter_count, 0);
}

TEST_F(TrainLogTest, NaruEpochEventsAndModelCard) {
  MakeWorkload();
  auto est = ce::MakeEstimator("Naru", {}, 3);
  ASSERT_TRUE(est->Build(*db_, {}).ok());
  std::vector<json::JsonValue> lines = FlushAndRead();
  ASSERT_GT(lines.size(), 0u);
  for (const json::JsonValue& ev : lines) {
    ExpectCommonSchema(ev);
    EXPECT_EQ(ev.Find("family")->string, "naru");
    EXPECT_EQ(ev.Find("event")->string, "epoch");
    EXPECT_TRUE(std::isfinite(ev.Find("loss")->number));
    EXPECT_GT(ev.Find("lr")->number, 0.0);
    const json::JsonValue* extra = ev.Find("extra");
    ASSERT_NE(extra, nullptr);
    EXPECT_GE(extra->Find("column")->number, 0.0);
  }

  ModelCard card;
  est->DescribeModel(&card);
  EXPECT_EQ(card.family, "naru");
  EXPECT_GT(card.parameter_count, 0);
  EXPECT_GT(card.epochs, 0);
}

TEST_F(TrainLogTest, ModelCardJsonRoundTrips) {
  ModelCard card;
  card.model = "FCN";
  card.family = "nn";
  card.dataset = "imdb-like";
  card.parameter_count = 1234;
  card.footprint_bytes = 4936;
  card.train_examples = 100;
  card.epochs = 20;
  card.final_train_loss = 0.25;
  card.extra.emplace_back("qerr_p95", 4.5);
  std::string out;
  JsonWriter w(&out, JsonWriter::Style::kCompact);
  card.WriteJson(w);
  json::JsonValue v;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &v, &error)) << error;
  EXPECT_EQ(v.Find("model")->string, "FCN");
  EXPECT_DOUBLE_EQ(v.Find("parameter_count")->number, 1234);
  // Unset final_val_loss serializes as null.
  EXPECT_EQ(v.Find("final_val_loss")->kind, json::JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(v.Find("extra")->Find("qerr_p95")->number, 4.5);
}

TEST_F(TrainLogTest, ManifestCarriesModelCardsAndMemory) {
  MakeWorkload();
  ce::NeuralOptions n;
  n.hidden_dim = 8;
  n.epochs = 2;
  auto est = ce::MakeEstimator("FCN", n, 3);
  ASSERT_TRUE(est->Build(*db_, train_).ok());
  ModelCard card;
  est->DescribeModel(&card);
  card.dataset = "pair";
  ModelCardRegistry::Global().Add(std::move(card));

  std::string manifest = RunManifestJson("train_log_test", 1.0);
  json::JsonValue v;
  std::string error;
  ASSERT_TRUE(json::Parse(manifest, &v, &error)) << error;
  const json::JsonValue* cards = v.Find("model_cards");
  ASSERT_NE(cards, nullptr);
  ASSERT_EQ(cards->array.size(), 1u);
  EXPECT_EQ(cards->array[0].Find("model")->string, "FCN");
  const json::JsonValue* mem = v.Find("memory");
  ASSERT_NE(mem, nullptr);
  ASSERT_NE(mem->Find("subsystems"), nullptr);
  // The registry credited the card's footprint to the "model" subsystem.
  const json::JsonValue* model_bytes =
      mem->Find("subsystems")->Find("model");
  ASSERT_NE(model_bytes, nullptr);
  EXPECT_GT(model_bytes->number, 0.0);
  // The training-log path is recorded alongside.
  ASSERT_NE(v.Find("train_log"), nullptr);
  EXPECT_EQ(v.Find("train_log")->string, path_);
  ASSERT_NE(v.Find("drift_alerts"), nullptr);
}

TEST_F(TrainLogTest, EstimatesBitIdenticalWithTrainLogOnAndOff) {
  // The instrumented loops compute extra diagnostics (grad norms, round
  // losses) only when the sink is enabled, and never feed them back into
  // training: a twin built with the gate unset must estimate identically.
  MakeWorkload();
  ce::NeuralOptions n;
  n.hidden_dim = 8;
  n.epochs = 3;

  SetTrainLogPathForTesting("");  // gate off: plain build
  auto plain = ce::MakeEstimator("FCN", n, 9);
  ASSERT_TRUE(plain->Build(*db_, train_).ok());
  std::vector<double> expected;
  for (const auto& lq : test_) {
    expected.push_back(plain->EstimateCardinality(lq.q));
  }

  SetTrainLogPathForTesting(path_.c_str());  // gate on: instrumented build
  auto logged = ce::MakeEstimator("FCN", n, 9);
  ASSERT_TRUE(logged->Build(*db_, train_).ok());
  EXPECT_GT(TrainLog::Global().events_recorded(), 0u);
  for (size_t i = 0; i < test_.size(); ++i) {
    EXPECT_EQ(logged->EstimateCardinality(test_[i].q), expected[i]) << i;
  }

  // Same twin check for a sampling-free data-driven family.
  SetTrainLogPathForTesting("");
  auto plain_naru = ce::MakeEstimator("Naru", {}, 9);
  ASSERT_TRUE(plain_naru->Build(*db_, {}).ok());
  SetTrainLogPathForTesting(path_.c_str());
  auto logged_naru = ce::MakeEstimator("Naru", {}, 9);
  ASSERT_TRUE(logged_naru->Build(*db_, {}).ok());
  for (size_t i = 0; i < test_.size(); ++i) {
    // Naru samples per query; twins built with and without the log must
    // agree query by query.
    EXPECT_EQ(logged_naru->EstimateCardinality(test_[i].q),
              plain_naru->EstimateCardinality(test_[i].q))
        << i;
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
