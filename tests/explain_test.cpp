#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/data_driven/bayesnet.h"
#include "src/ce/data_driven/naru.h"
#include "src/ce/data_driven/spn.h"
#include "src/ce/explain.h"
#include "src/ce/factory.h"
#include "src/ce/traditional/histogram.h"
#include "src/ce/traditional/multidim_histogram.h"
#include "src/query/query.h"
#include "src/storage/datagen.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lce {
namespace ce {
namespace {

// A minimal estimator that writes no diagnostics: exercises the base-class
// entry point, which must fill the name, shape and estimate itself.
class ConstantEstimator : public Estimator {
 public:
  std::string Name() const override { return "Constant"; }
  Status Build(const storage::Database&,
               const std::vector<query::LabeledQuery>&) override {
    return Status::OK();
  }
  uint64_t SizeBytes() const override { return 0; }

 protected:
  double EstimateImpl(const query::Query&, ExplainRecord*) const override {
    return 42.0;
  }
};

// The value of counter `name` in `rec`, or null when the record lacks it.
const double* FindCounter(const ExplainRecord& rec, const std::string& name) {
  for (const auto& [k, v] : rec.counters) {
    if (k == name) return &v;
  }
  return nullptr;
}

TEST(ExplainTest, DefaultDelegationFillsShapeAndEstimate) {
  ConstantEstimator est;
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 1, 5}, {{0, 1}, 2, 2}};
  ExplainRecord rec;
  double est_value = est.EstimateWithDiagnostics(q, &rec);
  EXPECT_DOUBLE_EQ(est_value, 42.0);
  EXPECT_DOUBLE_EQ(rec.estimate, 42.0);
  EXPECT_EQ(rec.estimator, "Constant");
  EXPECT_EQ(rec.num_tables, 1);
  EXPECT_EQ(rec.num_joins, 0);
  EXPECT_EQ(rec.num_predicates, 2);
}

TEST(ExplainTest, DiagnosticsBitIdenticalAcrossZoo) {
  // For every estimator in the zoo, a twin built with the same seed must
  // produce bit-identical estimates through EstimateWithDiagnostics — the
  // diagnostics only read values the plain path already computes (and, for
  // sampling-based models, consume no extra randomness). Each entry point
  // call adds exactly one observation to the model's latency histogram: the
  // base's timer is the only per-query timer.
  telemetry::SetMetricsEnabledForTesting(1);
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 3);
  workload::WorkloadGenerator gen(db.get(), {});
  Rng rng(4);
  auto train = gen.GenerateLabeled(150, &rng);
  auto test = gen.GenerateLabeled(15, &rng);
  NeuralOptions neural;
  neural.hidden_dim = 16;
  neural.epochs = 3;

  for (const std::string& name : AllEstimatorNames()) {
    auto plain = MakeEstimator(name, neural, /*seed=*/9);
    auto diag = MakeEstimator(name, neural, /*seed=*/9);
    ASSERT_TRUE(plain->Build(*db, train).ok()) << name;
    ASSERT_TRUE(diag->Build(*db, train).ok()) << name;
    telemetry::Histogram& latency =
        telemetry::MetricsRegistry::Global().histogram(
            "ce." + diag->Name() + ".latency.micros");
    for (const auto& lq : test) {
      uint64_t before = latency.Snapshot().count;
      double e1 = plain->EstimateCardinality(lq.q);
      EXPECT_EQ(latency.Snapshot().count, before + 1) << name;
      ExplainRecord rec;
      double e2 = diag->EstimateWithDiagnostics(lq.q, &rec);
      EXPECT_EQ(latency.Snapshot().count, before + 2) << name;
      EXPECT_EQ(e1, e2) << name;  // bit-identical, not just approximately
      EXPECT_EQ(rec.estimate, e2) << name;
      EXPECT_EQ(rec.estimator, diag->Name()) << name;
      EXPECT_EQ(rec.num_predicates,
                static_cast<int>(lq.q.predicates.size()))
          << name;
    }
  }
  telemetry::SetMetricsEnabledForTesting(-1);
}

TEST(ExplainTest, DataDrivenJoinCombinersExplainFanoutCorrection) {
  // The per-table families under each join-combination option: plain and
  // diagnosed estimates agree bit for bit, and every record carries the
  // fanout correction factor, which the fanout option moves off 1.
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 3);
  workload::WorkloadGenerator gen(db.get(), {});
  Rng rng(4);
  auto test = gen.GenerateLabeled(25, &rng);
  for (bool fanout : {false, true}) {
    NaruTableModel::Options naru;
    SpnTableModel::Options spn;
    BayesNetTableModel::Options bayes;
    naru.use_edge_selectivity = spn.use_edge_selectivity =
        bayes.use_edge_selectivity = !fanout;
    naru.use_fanout_correction = spn.use_fanout_correction =
        bayes.use_fanout_correction = fanout;
    std::vector<std::unique_ptr<Estimator>> zoo;
    zoo.push_back(std::make_unique<NaruEstimator>(naru));
    zoo.push_back(std::make_unique<SpnEstimator>(spn));
    zoo.push_back(std::make_unique<BayesNetEstimator>(bayes));
    for (const auto& est : zoo) {
      ASSERT_TRUE(est->Build(*db, {}).ok()) << est->Name();
      int corrected = 0;
      for (const auto& lq : test) {
        double plain = est->EstimateCardinality(lq.q);
        ExplainRecord rec;
        double diag = est->EstimateWithDiagnostics(lq.q, &rec);
        EXPECT_EQ(plain, diag) << est->Name();
        EXPECT_TRUE(std::isfinite(plain)) << est->Name();
        EXPECT_GE(plain, 1.0) << est->Name();
        const double* factor = FindCounter(rec, "fanout_correction");
        ASSERT_NE(factor, nullptr) << est->Name();
        if (*factor != 1.0) ++corrected;
      }
      if (fanout) {
        EXPECT_GT(corrected, 0) << est->Name();
      } else {
        EXPECT_EQ(corrected, 0) << est->Name();
      }
    }
  }
}

TEST(ExplainTest, HistogramPerPredicateSelectivities) {
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(20000, 50, 0.0, 0.0), 5);
  HistogramEstimator est;
  ASSERT_TRUE(est.Build(*db, {}).ok());
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 0, 24}, {{0, 1}, 10, 10}};
  ExplainRecord rec;
  double estimate = est.EstimateWithDiagnostics(q, &rec);
  ASSERT_EQ(rec.predicates.size(), 2u);
  double product = 1.0;
  for (const PredicateExplain& p : rec.predicates) {
    EXPECT_EQ(p.source, "mcv+equidepth");
    EXPECT_GE(p.selectivity, 0.0);
    EXPECT_LE(p.selectivity, 1.0);
    product *= p.selectivity;
  }
  // Single table: the estimate is rows * product of attributed selectivities.
  EXPECT_NEAR(estimate, 20000.0 * product, 1e-6 * estimate + 1e-6);
}

TEST(ExplainTest, MultiHistUniformFallbackCountedAndExplained) {
  telemetry::SetMetricsEnabledForTesting(1);
  auto db = storage::datagen::Generate(
      storage::datagen::SyntheticPairSpec(10000, 40, 0.0, 0.0), 6);
  MultiDimHistogramEstimator::Options opts;
  opts.max_dims = 1;  // only column a is gridded; b falls back to uniform
  MultiDimHistogramEstimator est(opts);
  ASSERT_TRUE(est.Build(*db, {}).ok());
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 0, 19}, {{0, 1}, 0, 19}};
  telemetry::Counter& fallback_counter =
      telemetry::MetricsRegistry::Global().counter(
          "ce.multihist.uniform_fallback");
  uint64_t before = fallback_counter.Value();
  ExplainRecord rec;
  est.EstimateWithDiagnostics(q, &rec);
  EXPECT_EQ(fallback_counter.Value(), before + 1);
  ASSERT_EQ(rec.fallbacks.size(), 1u);
  EXPECT_EQ(rec.fallbacks[0].site, "multihist.uniform_column");
  // The same silent fallback fires on the plain path too.
  est.EstimateCardinality(q);
  EXPECT_EQ(fallback_counter.Value(), before + 2);
  bool found_grid = false, found_fallback = false;
  for (const PredicateExplain& p : rec.predicates) {
    if (p.source == "grid") found_grid = true;
    if (p.source == "uniform_fallback") found_fallback = true;
  }
  EXPECT_TRUE(found_grid);
  EXPECT_TRUE(found_fallback);
  telemetry::SetMetricsEnabledForTesting(-1);
}

TEST(ExplainTest, SpnKeyColumnUniformFallbackCountedAndExplained) {
  telemetry::SetMetricsEnabledForTesting(1);
  // A table with a key column: the SPN never models it, so a predicate on it
  // takes the uniform fallback. Workload validation forbids key predicates,
  // so the query is constructed directly.
  storage::datagen::DatabaseGenSpec spec;
  spec.name = "keyed";
  spec.tables.push_back(
      {"t", 5000, {{.name = "id", .is_key = true}, {.name = "a", .domain = 30}}});
  auto db = storage::datagen::Generate(spec, 7);
  SpnEstimator est;
  ASSERT_TRUE(est.Build(*db, {}).ok());
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 0, 999}, {{0, 1}, 3, 9}};  // id constrained
  telemetry::Counter& fallback_counter =
      telemetry::MetricsRegistry::Global().counter("ce.spn.uniform_fallback");
  uint64_t before = fallback_counter.Value();
  ExplainRecord rec;
  double with_diag = est.EstimateWithDiagnostics(q, &rec);
  EXPECT_EQ(fallback_counter.Value(), before + 1);
  bool found = false;
  for (const FallbackEvent& f : rec.fallbacks) {
    if (f.site == "spn.key_column_uniform") found = true;
  }
  EXPECT_TRUE(found);
  // The plain path takes (and counts) the same fallback, same estimate.
  double plain = est.EstimateCardinality(q);
  EXPECT_EQ(fallback_counter.Value(), before + 2);
  EXPECT_EQ(plain, with_diag);
  telemetry::SetMetricsEnabledForTesting(-1);
}

TEST(ExplainTest, ModelCountersPerFamily) {
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 8);
  workload::WorkloadGenerator gen(db.get(), {});
  Rng rng(9);
  auto train = gen.GenerateLabeled(150, &rng);
  auto test = gen.GenerateLabeled(5, &rng);
  NeuralOptions neural;
  neural.hidden_dim = 16;
  neural.epochs = 3;

  struct Expectation {
    const char* estimator;
    const char* counter;
  };
  const std::vector<Expectation> expectations = {
      {"LW-XGB", "max_path_depth"},       // GBDT tree-path depth
      {"FCN", "pred_normalized"},         // network output before denormalizing
      {"DeepDB-SPN", "leaf_visits"},      // SPN node visits
      {"Naru", "sampling_budget"},        // progressive-sampling budget
      {"BayesNet", "modeled_predicates"},  // predicates the network covers
      {"Sampling", "sample_matches"},
  };
  for (const Expectation& e : expectations) {
    auto est = MakeEstimator(e.estimator, neural, 10);
    ASSERT_TRUE(est->Build(*db, train).ok()) << e.estimator;
    ExplainRecord rec;
    est->EstimateWithDiagnostics(test[0].q, &rec);
    EXPECT_NE(FindCounter(rec, e.counter), nullptr)
        << e.estimator << " missing counter " << e.counter;
  }
}

TEST(ExplainTest, MakeForensicRecordCopiesQueryAndDiagnostics) {
  query::Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 5, 9}, {{1, 2}, -3, 40}};
  ExplainRecord diag;
  diag.predicates.push_back({0, 1, 5, 9, 0.25, "mcv+equidepth"});
  diag.predicates.push_back({1, 2, -3, 40, -1.0, "grid"});
  diag.AddFallback("spn.key_column_uniform", "table=0 column=2");
  diag.AddFallback("hist.second_site", "");

  telemetry::PhaseScope scope("explain-test");
  telemetry::ForensicRecord fr =
      MakeForensicRecord("FCN", q, 123.5, 100, 1.235, 17.25, &diag);
  EXPECT_STREQ(fr.estimator, "FCN");
  EXPECT_STREQ(fr.scope, "explain-test");
  EXPECT_EQ(fr.query_hash, query::Fingerprint(q));
  EXPECT_EQ(fr.kind, 'e');
  EXPECT_DOUBLE_EQ(fr.estimate, 123.5);
  EXPECT_DOUBLE_EQ(fr.truth, 100);
  EXPECT_DOUBLE_EQ(fr.qerror, 1.235);
  EXPECT_DOUBLE_EQ(fr.latency_us, 17.25);
  EXPECT_EQ(fr.num_tables, 2);
  EXPECT_EQ(fr.num_joins, 1);
  EXPECT_EQ(fr.num_predicates, 2);
  ASSERT_EQ(fr.tables_recorded, 2);
  EXPECT_EQ(fr.tables[1], 1);
  ASSERT_EQ(fr.preds_recorded, 2);
  EXPECT_EQ(fr.preds[1].table, 1);
  EXPECT_EQ(fr.preds[1].column, 2);
  EXPECT_EQ(fr.preds[1].lo, -3);
  EXPECT_EQ(fr.preds[1].hi, 40);
  EXPECT_DOUBLE_EQ(fr.preds[0].selectivity, 0.25);
  EXPECT_DOUBLE_EQ(fr.preds[1].selectivity, -1.0);
  EXPECT_EQ(fr.num_fallbacks, 2);
  EXPECT_STREQ(fr.fallback_site, "spn.key_column_uniform");
  EXPECT_EQ(fr.stages_recorded, 0);

  // Without diagnostics: the IR and hash, no attribution.
  telemetry::ForensicRecord bare =
      MakeForensicRecord("FCN", q, 123.5, -1, -1, -1, nullptr);
  EXPECT_EQ(bare.query_hash, fr.query_hash);
  EXPECT_DOUBLE_EQ(bare.preds[0].selectivity, -1.0);
  EXPECT_EQ(bare.num_fallbacks, 0);
  EXPECT_STREQ(bare.fallback_site, "");
}

}  // namespace
}  // namespace ce
}  // namespace lce
