#include "src/eval/e2e.h"

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/storage/datagen.h"
#include "src/workload/generator.h"

namespace lce {
namespace eval {
namespace {

// An estimator wrapper that answers with exact counts: the optimizer given
// this oracle must always produce the optimal plan (p_error == 1).
class OracleEstimator : public ce::Estimator {
 public:
  explicit OracleEstimator(const storage::Database* db) : executor_(db) {}
  std::string Name() const override { return "Oracle"; }
  Status Build(const storage::Database& db,
               const std::vector<query::LabeledQuery>& training) override {
    (void)db;
    (void)training;
    return Status::OK();
  }
  uint64_t SizeBytes() const override { return 0; }

 protected:
  double EstimateImpl(const query::Query& q,
                      ce::ExplainRecord*) const override {
    return std::max(1.0, executor_.Cardinality(q));
  }

 private:
  exec::Executor executor_;
};

class E2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.05), 1);
    executor_ = std::make_unique<exec::Executor>(db_.get());
    planner_ = std::make_unique<opt::Planner>(db_.get(), opt::CostModel{});
    workload::WorkloadOptions opts;
    opts.max_joins = 3;
    workload::WorkloadGenerator gen(db_.get(), opts);
    Rng rng(2);
    workload_ = gen.GenerateLabeled(25, &rng);
  }
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<exec::Executor> executor_;
  std::unique_ptr<opt::Planner> planner_;
  std::vector<query::LabeledQuery> workload_;
};

TEST_F(E2eTest, OracleEstimatorAchievesPErrorOne) {
  OracleEstimator oracle(db_.get());
  for (const auto& lq : workload_) {
    if (lq.q.tables.size() < 2) continue;
    PlanQuality pq = EvaluatePlanQuality(*db_, *executor_, *planner_, &oracle,
                                         lq.q);
    EXPECT_NEAR(pq.p_error, 1.0, 1e-9);
  }
}

TEST_F(E2eTest, PErrorIsAtLeastOneForAnyEstimator) {
  auto hist = ce::MakeEstimator("Histogram");
  ASSERT_TRUE(hist->Build(*db_, {}).ok());
  for (const auto& lq : workload_) {
    if (lq.q.tables.size() < 2) continue;
    PlanQuality pq = EvaluatePlanQuality(*db_, *executor_, *planner_,
                                         hist.get(), lq.q);
    EXPECT_GE(pq.p_error, 1.0);
    EXPECT_GE(pq.est_plan_true_cost, pq.opt_plan_true_cost * (1 - 1e-9));
  }
}

TEST_F(E2eTest, WorkloadAggregationIsConsistent) {
  auto hist = ce::MakeEstimator("Histogram");
  ASSERT_TRUE(hist->Build(*db_, {}).ok());
  WorkloadPlanQuality agg = EvaluateWorkloadPlanQuality(
      *db_, *executor_, *planner_, hist.get(), workload_);
  EXPECT_GE(agg.total_est_cost, agg.total_opt_cost * (1 - 1e-9));
  EXPECT_GE(agg.mean_p_error, 1.0);
  EXPECT_GE(agg.max_p_error, agg.mean_p_error * (1 - 1e-9));
}

TEST_F(E2eTest, HostileEstimatorDegradesPlans) {
  // Constant estimates carry no ordering information: expect strictly worse
  // aggregate cost than the oracle on at least some queries.
  class ConstantEstimator : public ce::Estimator {
   public:
    std::string Name() const override { return "Const"; }
    Status Build(const storage::Database&,
                 const std::vector<query::LabeledQuery>&) override {
      return Status::OK();
    }
    uint64_t SizeBytes() const override { return 0; }

   protected:
    double EstimateImpl(const query::Query&,
                        ce::ExplainRecord*) const override {
      return 1000;
    }
  };
  ConstantEstimator constant;
  WorkloadPlanQuality agg = EvaluateWorkloadPlanQuality(
      *db_, *executor_, *planner_, &constant, workload_);
  EXPECT_GT(agg.max_p_error, 1.0);
}

}  // namespace
}  // namespace eval
}  // namespace lce
