// Zoo-wide invariants: every estimator, on every study database shape, must
// produce finite estimates >= 1 bounded by the join-size upper bound, report
// a positive footprint, and behave deterministically for a fixed seed. The
// reentrancy contract (ce/estimator.h) is checked the same way: an estimate
// is a pure function of (build, query), so repeating a query, reordering the
// test set, or estimating from four threads at once returns the same bits.

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
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
  std::vector<query::LabeledQuery> test;
  double join_upper_bound = 1;
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
    e->test = gen.GenerateLabeled(40, &rng);
    // Matches the label normalizer: log(prod(rows + 1)) is the ceiling a
    // saturated sigmoid model can emit.
    e->join_upper_bound = 1;
    for (int t = 0; t < e->db->num_tables(); ++t) {
      e->join_upper_bound *=
          static_cast<double>(e->db->table(t).num_rows()) + 1.0;
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

class ZooPropertyTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooPropertyTest, EstimatesAreSaneAndDeterministic) {
  const Env& env = GetEnv(GetParam().db_index);
  auto a = MakeEstimator(GetParam().estimator, Fast(), 11);
  auto b = MakeEstimator(GetParam().estimator, Fast(), 11);
  ASSERT_TRUE(a->Build(*env.db, env.train).ok()) << GetParam().estimator;
  ASSERT_TRUE(b->Build(*env.db, env.train).ok());
  for (const auto& lq : env.test) {
    double ea = a->EstimateCardinality(lq.q);
    EXPECT_TRUE(std::isfinite(ea));
    EXPECT_GE(ea, 1.0);
    EXPECT_LE(ea, env.join_upper_bound * (1 + 1e-9));
    // Same seed, same training, same query -> identical estimate. The only
    // exception would be wall-clock dependence, which no estimator has.
    EXPECT_DOUBLE_EQ(ea, b->EstimateCardinality(lq.q))
        << GetParam().estimator;
  }
  // Wander Join on a join-free schema legitimately stores no indexes.
  if (!(GetParam().estimator == "WanderJoin" && GetParam().db_index == 0)) {
    EXPECT_GT(a->SizeBytes(), 0u);
  }
}

// One built instance per case, shared by the reentrancy tests below: they
// check that estimating never changes what the instance answers next.
Estimator* Built(const ZooCase& c) {
  static std::map<std::pair<std::string, int>, std::unique_ptr<Estimator>>
      built;
  std::unique_ptr<Estimator>& e = built[{c.estimator, c.db_index}];
  if (e == nullptr) {
    const Env& env = GetEnv(c.db_index);
    e = MakeEstimator(c.estimator, Fast(), 11);
    EXPECT_TRUE(e->Build(*env.db, env.train).ok()) << c.estimator;
  }
  return e.get();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_P(ZooPropertyTest, RepeatedQueryGetsTheSameBits) {
  const Env& env = GetEnv(GetParam().db_index);
  Estimator* est = Built(GetParam());
  for (size_t i = 0; i < env.test.size(); ++i) {
    const double first = est->EstimateCardinality(env.test[i].q);
    const double again = est->EstimateCardinality(env.test[i].q);
    EXPECT_EQ(Bits(first), Bits(again))
        << GetParam().estimator << " query " << i << ": " << first << " vs "
        << again;
  }
}

TEST_P(ZooPropertyTest, TestSetOrderDoesNotChangeAnyAnswer) {
  const Env& env = GetEnv(GetParam().db_index);
  Estimator* est = Built(GetParam());
  const size_t n = env.test.size();
  std::vector<double> forward(n), reversed(n);
  for (size_t i = 0; i < n; ++i) {
    forward[i] = est->EstimateCardinality(env.test[i].q);
  }
  for (size_t i = n; i-- > 0;) {
    reversed[i] = est->EstimateCardinality(env.test[i].q);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(forward[i]), Bits(reversed[i]))
        << GetParam().estimator << " query " << i << ": " << forward[i]
        << " vs " << reversed[i];
  }
}

// Restores the default pool on scope exit so a failing case cannot leak a
// pinned pool into the rest of the test binary.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetThreadCountForTesting(0); }
};

TEST_P(ZooPropertyTest, FourConcurrentThreadsMatchASequentialPass) {
  const Env& env = GetEnv(GetParam().db_index);
  Estimator* est = Built(GetParam());
  const size_t n = env.test.size();
  std::vector<double> sequential(n);
  for (size_t i = 0; i < n; ++i) {
    sequential[i] = est->EstimateCardinality(env.test[i].q);
  }
  // Four pool lanes at any LCE_THREADS, so estimators whose kernels fan out
  // share the pool between the four callers.
  ThreadCountGuard guard;
  parallel::SetThreadCountForTesting(4);
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(n));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Staggered starts: the threads estimate different queries at once.
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (k + static_cast<size_t>(t) * n / kThreads) % n;
          got[t][i] = est->EstimateCardinality(env.test[i].q);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(got[t][i]), Bits(sequential[i]))
          << GetParam().estimator << " thread " << t << " query " << i;
    }
  }
}

std::vector<ZooCase> AllCases() {
  std::vector<ZooCase> cases;
  for (const std::string& name : AllEstimatorNames()) {
    cases.push_back({name, 0});
    cases.push_back({name, 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(EveryEstimatorEveryShape, ZooPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace ce
}  // namespace lce
