// Model persistence: trained query-driven estimators serialize their weights
// and restore into a Prepare()d instance with identical behaviour.

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/query_driven/flat_models.h"
#include "src/ce/query_driven/recurrent_models.h"
#include "src/ce/query_driven/set_models.h"
#include "src/storage/datagen.h"
#include "src/workload/generator.h"

namespace lce {
namespace ce {
namespace {

struct Env {
  std::unique_ptr<storage::Database> db;
  std::vector<query::LabeledQuery> train;
  std::vector<query::LabeledQuery> test;
};

const Env& SharedEnv() {
  static Env* env = [] {
    auto* e = new Env();
    e->db = storage::datagen::Generate(storage::datagen::DmvLikeSpec(0.1), 3);
    workload::WorkloadOptions opts;
    opts.max_joins = 0;
    workload::WorkloadGenerator gen(e->db.get(), opts);
    Rng rng(4);
    e->train = gen.GenerateLabeled(300, &rng);
    e->test = gen.GenerateLabeled(30, &rng);
    return e;
  }();
  return *env;
}

NeuralOptions SmallOptions() {
  NeuralOptions o;
  o.epochs = 5;
  o.hidden_dim = 16;
  return o;
}

template <typename Model>
void RoundTrip() {
  const Env& env = SharedEnv();
  Model trained(SmallOptions());
  ASSERT_TRUE(trained.Build(*env.db, env.train).ok());

  std::stringstream buffer;
  ASSERT_TRUE(trained.SaveModel(&buffer).ok());

  Model restored(SmallOptions());
  ASSERT_TRUE(restored.Prepare(*env.db).ok());
  ASSERT_TRUE(restored.LoadModel(&buffer).ok());

  for (const auto& lq : env.test) {
    EXPECT_DOUBLE_EQ(restored.EstimateCardinality(lq.q),
                     trained.EstimateCardinality(lq.q));
  }
}

TEST(PersistenceTest, FcnRoundTrips) { RoundTrip<FcnEstimator>(); }
TEST(PersistenceTest, LinearRoundTrips) { RoundTrip<LinearEstimator>(); }
TEST(PersistenceTest, MscnRoundTrips) { RoundTrip<MscnEstimator>(); }
TEST(PersistenceTest, FcnPoolRoundTrips) { RoundTrip<FcnPoolEstimator>(); }
TEST(PersistenceTest, RnnRoundTrips) { RoundTrip<RnnEstimator>(); }
TEST(PersistenceTest, LstmRoundTrips) { RoundTrip<LstmEstimator>(); }

TEST(PersistenceTest, SaveWithoutBuildFails) {
  FcnEstimator est(SmallOptions());
  std::stringstream buffer;
  EXPECT_FALSE(est.SaveModel(&buffer).ok());
}

TEST(PersistenceTest, LoadWithoutPrepareFails) {
  FcnEstimator est(SmallOptions());
  std::stringstream buffer;
  EXPECT_FALSE(est.LoadModel(&buffer).ok());
}

TEST(PersistenceTest, LoadRejectsMismatchedArchitecture) {
  const Env& env = SharedEnv();
  FcnEstimator trained(SmallOptions());
  ASSERT_TRUE(trained.Build(*env.db, env.train).ok());
  std::stringstream buffer;
  ASSERT_TRUE(trained.SaveModel(&buffer).ok());

  NeuralOptions wider = SmallOptions();
  wider.hidden_dim = 32;
  FcnEstimator other(wider);
  ASSERT_TRUE(other.Prepare(*env.db).ok());
  EXPECT_FALSE(other.LoadModel(&buffer).ok());
}

// Answers of `model` on the test queries, as bits.
std::vector<double> Answers(Estimator* model) {
  std::vector<double> out;
  for (const auto& lq : SharedEnv().test) {
    out.push_back(model->EstimateCardinality(lq.q));
  }
  return out;
}

// A failed load changes nothing: a built model that is handed a stream cut
// at every parameter boundary, in the middle of a header or of a
// parameter's values, or carrying a NaN weight keeps answering exactly as
// before, and the full stream still loads afterwards.
template <typename Model>
void FailedLoadsLeaveTheModelUnchanged() {
  const Env& env = SharedEnv();
  Model source(SmallOptions());
  ASSERT_TRUE(source.Build(*env.db, env.train).ok());
  std::stringstream saved;
  ASSERT_TRUE(source.SaveModel(&saved).ok());
  const std::string stream = saved.str();

  // Same options (so the same encoder), other weights: trained on half the
  // queries.
  Model target(SmallOptions());
  const std::vector<query::LabeledQuery> half(
      env.train.begin(), env.train.begin() + env.train.size() / 2);
  ASSERT_TRUE(target.Build(*env.db, half).ok());
  const std::vector<double> before = Answers(&target);
  ASSERT_NE(before, Answers(&source));

  // Byte offsets inside the stream: each parameter is an 8-byte header
  // (rows, cols) and rows * cols floats.
  std::vector<size_t> cuts;
  size_t offset = 0;
  while (offset < stream.size()) {
    int32_t shape[2];
    std::memcpy(shape, stream.data() + offset, sizeof(shape));
    const size_t values = static_cast<size_t>(shape[0]) * shape[1];
    cuts.push_back(offset);                    // at the boundary
    cuts.push_back(offset + 4);                // inside the header
    cuts.push_back(offset + 8 + values / 2 * sizeof(float));  // mid-values
    offset += 8 + values * sizeof(float);
  }
  ASSERT_EQ(offset, stream.size());
  for (size_t cut : cuts) {
    std::stringstream truncated(stream.substr(0, cut));
    EXPECT_FALSE(target.LoadModel(&truncated).ok()) << "cut at " << cut;
    EXPECT_EQ(Answers(&target), before) << "cut at " << cut;
  }

  // A NaN in the last weight of the last parameter.
  std::string poisoned = stream;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(poisoned.data() + poisoned.size() - sizeof(float), &nan,
              sizeof(float));
  std::stringstream poisoned_stream(poisoned);
  EXPECT_FALSE(target.LoadModel(&poisoned_stream).ok());
  EXPECT_EQ(Answers(&target), before);

  std::stringstream full(stream);
  ASSERT_TRUE(target.LoadModel(&full).ok());
  EXPECT_EQ(Answers(&target), Answers(&source));
}

TEST(PersistenceTest, FailedLoadLeavesFcnUnchanged) {
  FailedLoadsLeaveTheModelUnchanged<FcnEstimator>();
}

TEST(PersistenceTest, FailedLoadLeavesMscnUnchanged) {
  FailedLoadsLeaveTheModelUnchanged<MscnEstimator>();
}

TEST(PersistenceTest, FailedLoadLeavesLstmUnchanged) {
  FailedLoadsLeaveTheModelUnchanged<LstmEstimator>();
}

TEST(PersistenceTest, LoadedModelSupportsFurtherUpdates) {
  const Env& env = SharedEnv();
  FcnEstimator trained(SmallOptions());
  ASSERT_TRUE(trained.Build(*env.db, env.train).ok());
  std::stringstream buffer;
  ASSERT_TRUE(trained.SaveModel(&buffer).ok());

  FcnEstimator restored(SmallOptions());
  ASSERT_TRUE(restored.Prepare(*env.db).ok());
  ASSERT_TRUE(restored.LoadModel(&buffer).ok());
  EXPECT_TRUE(restored.UpdateWithQueries(env.test).ok());
}

}  // namespace
}  // namespace ce
}  // namespace lce
