// Zoo-wide batch/loop equivalence: for every estimator, EstimateBatch() must
// be bit-identical to the per-query EstimateCardinality() loop, at one and at
// four threads. This is the contract the serving micro-batcher rests on —
// coalescing requests into one vectorized flush may change latency, never
// answers. Vectorized overrides (FCN, Linear, MSCN, FCN+Pool, RNN, LSTM,
// LW-XGB) inherit it from the kernel bit-identity contract (DESIGN.md §10);
// everyone else uses the default loop, which must also hold for the
// estimators that sample per query.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace ce {
namespace {

struct ZooCase {
  std::string estimator;
  int db_index;  // 0 = DMV-like (single table), 1 = TPC-H-like (snowflake)
};

std::string CaseName(const ::testing::TestParamInfo<ZooCase>& info) {
  std::string name = info.param.estimator +
                     (info.param.db_index == 0 ? "_dmv" : "_tpch");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

struct Env {
  std::unique_ptr<storage::Database> db;
  std::vector<query::LabeledQuery> train;
  std::vector<query::Query> test;
};

const Env& GetEnv(int index) {
  static Env* envs[2] = {nullptr, nullptr};
  if (envs[index] == nullptr) {
    auto* e = new Env();
    e->db = storage::datagen::Generate(
        index == 0
            ? storage::datagen::DmvLikeSpec(0.08)
            : storage::datagen::TpchLikeSpec(0.04),
        31 + index);
    workload::WorkloadOptions opts;
    opts.max_joins = index == 0 ? 0 : 2;
    workload::WorkloadGenerator gen(e->db.get(), opts);
    Rng rng(32);
    e->train = gen.GenerateLabeled(250, &rng);
    for (const auto& lq : gen.GenerateLabeled(40, &rng)) {
      e->test.push_back(lq.q);
    }
    envs[index] = e;
  }
  return *envs[index];
}

NeuralOptions Fast() {
  NeuralOptions o;
  o.epochs = 4;
  o.hidden_dim = 16;
  return o;
}

// Restores the default pool on scope exit so a failing case cannot leak a
// one-thread pool into the rest of the test binary.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetThreadCountForTesting(0); }
};

class BatchEquivalenceTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(BatchEquivalenceTest, BatchMatchesLoopBitwiseAtOneAndFourThreads) {
  const Env& env = GetEnv(GetParam().db_index);

  // Three identically-seeded instances, one per pass: the batch runs are
  // also compared against builds that never estimated before.
  auto loop_inst = MakeEstimator(GetParam().estimator, Fast(), 11);
  auto batch1_inst = MakeEstimator(GetParam().estimator, Fast(), 11);
  auto batch4_inst = MakeEstimator(GetParam().estimator, Fast(), 11);
  ASSERT_TRUE(loop_inst->Build(*env.db, env.train).ok())
      << GetParam().estimator;
  ASSERT_TRUE(batch1_inst->Build(*env.db, env.train).ok());
  ASSERT_TRUE(batch4_inst->Build(*env.db, env.train).ok());

  std::vector<double> loop;
  loop.reserve(env.test.size());
  for (const query::Query& q : env.test) {
    loop.push_back(loop_inst->EstimateCardinality(q));
  }

  ThreadCountGuard guard;
  parallel::SetThreadCountForTesting(1);
  std::vector<double> batch1 = batch1_inst->EstimateBatch(env.test);
  parallel::SetThreadCountForTesting(4);
  std::vector<double> batch4 = batch4_inst->EstimateBatch(env.test);

  ASSERT_EQ(batch1.size(), env.test.size());
  ASSERT_EQ(batch4.size(), env.test.size());
  for (size_t i = 0; i < env.test.size(); ++i) {
    // Bitwise, not approximate: the serving path must be indistinguishable
    // from the per-query path.
    EXPECT_EQ(loop[i], batch1[i])
        << GetParam().estimator << " query " << i << " at 1 thread";
    EXPECT_EQ(loop[i], batch4[i])
        << GetParam().estimator << " query " << i << " at 4 threads";
  }
}

TEST_P(BatchEquivalenceTest, SingleElementBatchMatchesSingleCall) {
  const Env& env = GetEnv(GetParam().db_index);
  auto a = MakeEstimator(GetParam().estimator, Fast(), 17);
  auto b = MakeEstimator(GetParam().estimator, Fast(), 17);
  ASSERT_TRUE(a->Build(*env.db, env.train).ok()) << GetParam().estimator;
  ASSERT_TRUE(b->Build(*env.db, env.train).ok());
  const query::Query& q = env.test.front();
  std::vector<double> batch = b->EstimateBatch({q});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(a->EstimateCardinality(q), batch[0]) << GetParam().estimator;
}

std::vector<ZooCase> AllCases() {
  std::vector<ZooCase> cases;
  for (const std::string& name : AllEstimatorNames()) {
    cases.push_back({name, 0});
    cases.push_back({name, 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryEstimatorEveryShape, BatchEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// The neural query-driven family must advertise its vectorized path — this
// is what routes it through the micro-batcher's one-flush fast lane and the
// accuracy harness's batched scoring.
TEST(BatchEquivalenceTest, NeuralFamilyAdvertisesVectorizedBatch) {
  for (const std::string& name : QueryDrivenNeuralNames()) {
    auto e = MakeEstimator(name, Fast(), 11);
    EXPECT_TRUE(e->HasBatchEstimate()) << name;
  }
}

}  // namespace
}  // namespace ce
}  // namespace lce
