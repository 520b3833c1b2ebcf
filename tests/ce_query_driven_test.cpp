// Behavioural tests of the query-driven estimator family. Training sizes are
// kept small; the assertions target learnability and API contracts, not
// state-of-the-art accuracy (that is what the benchmarks measure).

#include <sstream>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/ce/query_driven/flat_models.h"
#include "src/ce/query_driven/neural_base.h"
#include "src/eval/metrics.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace ce {
namespace {

struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::vector<query::LabeledQuery> train;
  std::vector<query::LabeledQuery> test;
};

// One shared single-table fixture keeps the per-test cost low.
const Fixture& SingleTableFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    fx->db =
        storage::datagen::Generate(storage::datagen::DmvLikeSpec(0.15), 21);
    workload::WorkloadOptions opts;
    opts.max_joins = 0;
    workload::WorkloadGenerator gen(fx->db.get(), opts);
    Rng rng(22);
    fx->train = gen.GenerateLabeled(900, &rng);
    fx->test = gen.GenerateLabeled(150, &rng);
    return fx;
  }();
  return *f;
}

const Fixture& JoinFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    fx->db =
        storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.05), 23);
    workload::WorkloadOptions opts;
    opts.max_joins = 2;
    workload::WorkloadGenerator gen(fx->db.get(), opts);
    Rng rng(24);
    fx->train = gen.GenerateLabeled(700, &rng);
    fx->test = gen.GenerateLabeled(120, &rng);
    return fx;
  }();
  return *f;
}

NeuralOptions FastOptions() {
  NeuralOptions o;
  o.epochs = 15;
  o.hidden_dim = 32;
  return o;
}

// Baseline to beat: always predicts the median training cardinality.
double TrivialBaselineGeoMean(const Fixture& fx) {
  std::vector<double> cards;
  for (const auto& lq : fx.train) cards.push_back(lq.cardinality);
  double median = Percentile(cards, 50);
  std::vector<double> qerrs;
  for (const auto& lq : fx.test) {
    qerrs.push_back(eval::QError(median, lq.cardinality));
  }
  return GeometricMean(qerrs);
}

class QueryDrivenModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(QueryDrivenModelTest, LearnsSingleTableWorkload) {
  const Fixture& fx = SingleTableFixture();
  auto est = MakeEstimator(GetParam(), FastOptions(), 1);
  ASSERT_TRUE(est->Build(*fx.db, fx.train).ok());
  auto report = eval::EvaluateAccuracy(est.get(), fx.test);
  double baseline = TrivialBaselineGeoMean(fx);
  // Deep models must clearly beat a constant predictor; the capacity-bound
  // Linear model must at least match it.
  double factor = GetParam() == "Linear" ? 1.05 : 0.9;
  EXPECT_LT(report.summary.geo_mean, baseline * factor) << GetParam();
  for (double q : report.qerrors) {
    EXPECT_GE(q, 1.0);
    EXPECT_TRUE(std::isfinite(q));
  }
}

TEST_P(QueryDrivenModelTest, HandlesJoinQueries) {
  const Fixture& fx = JoinFixture();
  auto est = MakeEstimator(GetParam(), FastOptions(), 2);
  ASSERT_TRUE(est->Build(*fx.db, fx.train).ok());
  auto report = eval::EvaluateAccuracy(est.get(), fx.test);
  EXPECT_TRUE(std::isfinite(report.summary.max)) << GetParam();
  EXPECT_GT(est->SizeBytes(), 0u);
}

TEST_P(QueryDrivenModelTest, DeterministicForSameSeed) {
  const Fixture& fx = SingleTableFixture();
  NeuralOptions o = FastOptions();
  o.epochs = 4;
  auto a = MakeEstimator(GetParam(), o, 77);
  auto b = MakeEstimator(GetParam(), o, 77);
  ASSERT_TRUE(a->Build(*fx.db, fx.train).ok());
  ASSERT_TRUE(b->Build(*fx.db, fx.train).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a->EstimateCardinality(fx.test[i].q),
                     b->EstimateCardinality(fx.test[i].q))
        << GetParam();
  }
}

TEST_P(QueryDrivenModelTest, UpdateWithQueriesImprovesFitOnNewRegion) {
  const Fixture& fx = SingleTableFixture();
  NeuralOptions o = FastOptions();
  o.epochs = 8;
  auto est = MakeEstimator(GetParam(), o, 3);
  ASSERT_TRUE(est->Build(*fx.db, fx.train).ok());

  // New queries from a narrower center region (a mild workload shift).
  workload::WorkloadOptions shift;
  shift.max_joins = 0;
  shift.center_lo = 0.5;
  shift.center_hi = 1.0;
  workload::WorkloadGenerator gen(fx.db.get(), shift);
  Rng rng(31);
  auto incoming = gen.GenerateLabeled(250, &rng);
  auto holdout = gen.GenerateLabeled(80, &rng);

  double before = eval::EvaluateAccuracy(est.get(), holdout).summary.geo_mean;
  ASSERT_TRUE(est->UpdateWithQueries(incoming).ok());
  double after = eval::EvaluateAccuracy(est.get(), holdout).summary.geo_mean;
  // Incremental training on the new region must not blow up, and should
  // usually help; allow slack for stochastic updates.
  EXPECT_LT(after, before * 1.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, QueryDrivenModelTest,
                         ::testing::Values("Linear", "FCN", "FCN+Pool",
                                           "MSCN", "RNN", "LSTM", "LW-XGB"));

// Row-block training contract (DESIGN.md §6, §10): a minibatch runs as one
// block of rows per lane, then one gradient sum over the blocks in order, so
// Build and UpdateWithQueries land on the same bits at every lane count.
// A block carries at least nn::kMinLaneWork rows x parameters, so at hidden
// 32 every family but Linear splits a 64-row minibatch, and MSCN, FCN+Pool
// and LSTM split a 7-row one unevenly into fewer blocks than lanes; 3 and 1
// run as one block. 64 also leaves a short last minibatch. The answers
// cover a multi-block EstimateBatch (more than 64 queries). Small enough
// for ThreadSanitizer.
class RowBlockLaneTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { parallel::SetThreadCountForTesting(0); }
};

TEST_P(RowBlockLaneTest, BuildAndUpdateAreBitIdenticalAtOneToFourLanes) {
  const Fixture& fx = JoinFixture();
  const std::vector<query::LabeledQuery> train(fx.train.begin(),
                                               fx.train.begin() + 100);
  const std::vector<query::LabeledQuery> update(fx.test.begin(),
                                                fx.test.begin() + 40);
  std::vector<query::Query> scored;
  for (const auto& lq : fx.test) scored.push_back(lq.q);
  for (int batch_size : {64, 7, 3, 1}) {
    NeuralOptions o;
    o.hidden_dim = 32;
    o.epochs = 2;
    o.update_epochs = 1;
    o.batch_size = batch_size;
    std::vector<double> ref_losses, ref_answers;
    for (int lanes = 1; lanes <= 4; ++lanes) {
      parallel::SetThreadCountForTesting(lanes);
      auto base = MakeEstimator(GetParam(), o, 5);
      auto* est = dynamic_cast<NeuralQueryDrivenEstimator*>(base.get());
      ASSERT_NE(est, nullptr) << GetParam();
      ASSERT_TRUE(est->Build(*fx.db, train).ok());
      ASSERT_TRUE(est->UpdateWithQueries(update).ok());
      const std::vector<double> answers = est->EstimateBatch(scored);
      if (lanes == 1) {
        ref_losses = est->epoch_losses();
        ref_answers = answers;
        continue;
      }
      // EXPECT_EQ on doubles compares bits for finite values.
      EXPECT_EQ(est->epoch_losses(), ref_losses)
          << GetParam() << " batch_size " << batch_size << " lanes " << lanes;
      EXPECT_EQ(answers, ref_answers)
          << GetParam() << " batch_size " << batch_size << " lanes " << lanes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NeuralFamilies, RowBlockLaneTest,
                         ::testing::Values("Linear", "FCN", "FCN+Pool",
                                           "MSCN", "RNN", "LSTM"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

TEST(QueryDrivenTest, BuildRejectsEmptyTraining) {
  const Fixture& fx = SingleTableFixture();
  auto est = MakeEstimator("FCN", FastOptions(), 1);
  EXPECT_FALSE(est->Build(*fx.db, {}).ok());
}

// batch_size < 1 would hang training (0: the minibatch loop never advances)
// or silently train one full batch per epoch (-1 wraps to SIZE_MAX), so both
// training entry points must refuse it before training.
TEST(QueryDrivenTest, TrainingRejectsBatchSizeBelowOne) {
  const Fixture& fx = SingleTableFixture();
  NeuralOptions good = FastOptions();
  good.epochs = 1;
  FcnEstimator trained(good);
  ASSERT_TRUE(trained.Build(*fx.db, fx.train).ok());
  std::stringstream saved;
  ASSERT_TRUE(trained.SaveModel(&saved).ok());
  const query::Query& probe = fx.test.front().q;
  for (int batch_size : {0, -1}) {
    NeuralOptions bad = good;
    bad.batch_size = batch_size;
    FcnEstimator built(bad);
    EXPECT_EQ(built.Build(*fx.db, fx.train).code(),
              StatusCode::kInvalidArgument)
        << "batch_size " << batch_size;

    // A usable model with the bad option, reached through Prepare+LoadModel.
    FcnEstimator loaded(bad);
    ASSERT_TRUE(loaded.Prepare(*fx.db).ok());
    std::stringstream in(saved.str());
    ASSERT_TRUE(loaded.LoadModel(&in).ok());
    EXPECT_EQ(loaded.UpdateWithQueries(fx.test).code(),
              StatusCode::kInvalidArgument)
        << "batch_size " << batch_size;
    // Nothing trained: the loaded weights still answer like the saved model.
    EXPECT_EQ(loaded.EstimateCardinality(probe),
              trained.EstimateCardinality(probe));
  }
}

TEST(QueryDrivenTest, EstimateBeforeBuildDies) {
  auto est = MakeEstimator("FCN", FastOptions(), 1);
  query::Query q;
  q.tables = {0};
  EXPECT_DEATH(est->EstimateCardinality(q), "Build");
}

TEST(QueryDrivenTest, FcnBeatsLinearOnCapacityBoundWorkload) {
  const Fixture& fx = SingleTableFixture();
  NeuralOptions o = FastOptions();
  o.epochs = 25;
  auto linear = MakeEstimator("Linear", o, 5);
  auto fcn = MakeEstimator("FCN", o, 5);
  ASSERT_TRUE(linear->Build(*fx.db, fx.train).ok());
  ASSERT_TRUE(fcn->Build(*fx.db, fx.train).ok());
  double lin = eval::EvaluateAccuracy(linear.get(), fx.test).summary.geo_mean;
  double deep = eval::EvaluateAccuracy(fcn.get(), fx.test).summary.geo_mean;
  EXPECT_LT(deep, lin);
}

TEST(QueryDrivenTest, LossAblationBothLossesTrain) {
  const Fixture& fx = SingleTableFixture();
  for (nn::LossKind loss : {nn::LossKind::kMse, nn::LossKind::kLogQ}) {
    NeuralOptions o = FastOptions();
    o.loss = loss;
    auto est = MakeEstimator("FCN", o, 6);
    ASSERT_TRUE(est->Build(*fx.db, fx.train).ok());
    auto report = eval::EvaluateAccuracy(est.get(), fx.test);
    EXPECT_LT(report.summary.geo_mean, TrivialBaselineGeoMean(fx));
  }
}

TEST(QueryDrivenTest, EncodingVariantsProduceWorkingModels) {
  const Fixture& fx = SingleTableFixture();
  for (query::FlatVariant variant :
       {query::FlatVariant::kFull, query::FlatVariant::kRangeOnly,
        query::FlatVariant::kCoarse}) {
    NeuralOptions o = FastOptions();
    o.flat_variant = variant;
    auto est = MakeEstimator("FCN", o, 7);
    ASSERT_TRUE(est->Build(*fx.db, fx.train).ok());
    EXPECT_TRUE(std::isfinite(
        eval::EvaluateAccuracy(est.get(), fx.test).summary.mean));
  }
}

}  // namespace
}  // namespace ce
}  // namespace lce
