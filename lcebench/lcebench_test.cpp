// Tests of the benchmark's own helpers: quantiles with sample counts, the
// latency histogram, span self time, and the timing decorator's
// transparency.

#include <bit>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lcebench/spans.h"
#include "lcebench/timing_estimator.h"
#include "src/ce/factory.h"
#include "src/serve/service.h"
#include "src/storage/datagen.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace lcebench {
namespace {

TEST(QuantileTest, InterpolatesAndCountsSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Quantile p50 = QuantileOf(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Quantile p99 = QuantileOf(v, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 99.01);
  EXPECT_EQ(p99.beyond, 1u);  // too few samples to support a p99
  EXPECT_EQ(QuantileOf(v, 1.0).beyond, 0u);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.0).value, 1.0);
}

TEST(QuantileTest, P99OfThousandSamplesHasTenBeyond) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(QuantileOf(v, 0.99).beyond, 10u);
}

TEST(QuantileTest, EmptyAndSingleSamples) {
  const Quantile empty = QuantileOf({}, 0.5);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_EQ(empty.samples, 0u);
  const Quantile one = QuantileOf({7.0}, 0.99);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_EQ(one.beyond, 0u);
}

TEST(QuantileTest, MedianSortsItsInput) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(LatencyHistogramTest, QuantilesWithinOnePercentOfExact) {
  LatencyHistogram h, other;
  std::vector<double> exact;
  // Dense: neighbouring samples lie much closer than a bucket's 1% width.
  for (int i = 1; i <= 20000; ++i) {
    const double us = 100 + 0.01 * i;
    (i % 2 == 0 ? h : other).Add(us);
    exact.push_back(us);
  }
  h.Merge(other);
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_NEAR(h.sum(), 100 * 20000 + 0.01 * 20000 * 20001 / 2, 1e-3);
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    const Quantile want = QuantileOf(exact, q);
    const Quantile got = h.QuantileOf(q);
    EXPECT_NEAR(got.value, want.value, 0.01 * want.value) << q;
    EXPECT_EQ(got.samples, 20000u);
    EXPECT_NEAR(static_cast<double>(got.beyond),
                static_cast<double>(want.beyond), 0.02 * 20000) << q;
  }
}

TEST(LatencyHistogramTest, EmptyAndOutOfRange) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileOf(0.5).samples, 0u);
  EXPECT_EQ(h.QuantileOf(0.5).value, 0.0);
  h.Add(0.0);   // below the first bucket
  h.Add(1e12);  // above the last
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LT(h.QuantileOf(0.0).value, 0.06);
  EXPECT_GT(h.QuantileOf(1.0).value, 1e7);
}

TEST(SpanTest, LayerIsTheNamePrefix) {
  EXPECT_EQ(LayerOf("query.parse"), "query");
  EXPECT_EQ(LayerOf("ce.build.LW-XGB"), "ce");
  EXPECT_EQ(LayerOf("request"), "request");
}

TEST(SpanTest, SelfTimeSubtractsUnionOfClippedChildren) {
  // root [0,100): children [10,30) and [20,50) overlap (union 40), and
  // [90,120) is clipped to [90,100) (10), so root's self time is 50.
  // Child [10,30) has a grandchild [12,15): its self time is 17. The
  // grandchild does not count against the root (only direct children do).
  std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 100},      {2, 1, 7, "query.parse", 10, 30},
      {3, 1, 7, "serve.call", 20, 50},   {4, 1, 7, "ce.flush", 90, 120},
      {5, 2, 7, "query.lex", 12, 15},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 17);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);  // its own duration; clipping applies to parents
  EXPECT_EQ(self[4], 3);

  std::map<std::string, int64_t> by_layer;
  AddSelfTimesByLayer(spans, &by_layer);
  EXPECT_EQ(by_layer["request"], 50);
  EXPECT_EQ(by_layer["query"], 20);
  EXPECT_EQ(by_layer["serve"], 30);
  EXPECT_EQ(by_layer["ce"], 30);
}

TEST(SpanTest, OrphanAndDisjointChildren) {
  std::vector<Span> spans = {
      {1, 0, 0, "setup", 0, 10},
      {2, 1, 0, "storage.generate", 0, 4},
      {3, 1, 0, "workload.label", 6, 10},
      {4, 99, 0, "ce.build.MSCN", 0, 5},  // parent never recorded: a root
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 2);
  EXPECT_EQ(self[3], 5);
}

TEST(SpanTest, ScopedSpanRecordsIntoLogWithParent) {
  SpanLog log;
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&log, "setup");
    parent_id = parent.id();
    ScopedSpan child(&log, "storage.generate", parent.id());
    EXPECT_GE(child.End(), 0.0);
    child.End();  // idempotent: recorded once
  }
  const std::vector<Span> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "storage.generate");
  EXPECT_EQ(spans[0].parent, parent_id);
  EXPECT_EQ(spans[1].name, "setup");
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);

  ScopedSpan untraced(nullptr, "ce.build.FCN");  // timing only
  EXPECT_EQ(untraced.id(), 0u);
  EXPECT_GE(untraced.End(), 0.0);
}

class TimingEstimatorTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    db_ = lce::storage::datagen::Generate(
        lce::storage::datagen::TpchLikeSpec(0.03), 3);
    lce::workload::WorkloadOptions opts;
    opts.max_joins = 2;
    lce::workload::WorkloadGenerator gen(db_.get(), opts);
    lce::Rng rng(9);
    train_ = gen.GenerateLabeled(200, &rng);
    for (const auto& lq : gen.GenerateLabeled(40, &rng)) test_.push_back(lq.q);
  }

  std::shared_ptr<lce::ce::Estimator> Built() {
    lce::ce::NeuralOptions fast;
    fast.hidden_dim = 16;
    fast.epochs = 3;
    std::shared_ptr<lce::ce::Estimator> est =
        lce::ce::MakeEstimator(GetParam(), fast, 11);
    EXPECT_TRUE(est->Build(*db_, train_).ok());
    return est;
  }

  std::unique_ptr<lce::storage::Database> db_;
  std::vector<lce::query::LabeledQuery> train_;
  std::vector<lce::query::Query> test_;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST_P(TimingEstimatorTest, ForwardsEveryVirtualWithIdenticalAnswers) {
  std::shared_ptr<lce::ce::Estimator> reference = Built();
  std::shared_ptr<lce::ce::Estimator> inner = Built();
  FlushLog log;
  TimingEstimator timed(inner, &log);

  EXPECT_EQ(timed.Name(), reference->Name());
  EXPECT_EQ(timed.HasBatchEstimate(), reference->HasBatchEstimate());
  EXPECT_EQ(timed.ThreadSafeEstimate(), reference->ThreadSafeEstimate());
  EXPECT_EQ(timed.SizeBytes(), reference->SizeBytes());
  EXPECT_EQ(timed.FootprintBytes(), reference->FootprintBytes());

  const std::vector<double> want = reference->EstimateBatch(test_);
  const std::vector<double> got = timed.EstimateBatch(test_);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i], want[i])) << i;
    EXPECT_TRUE(SameBits(timed.EstimateCardinality(test_[i]), want[i])) << i;
    lce::ce::ExplainRecord rec;
    EXPECT_TRUE(SameBits(timed.EstimateWithDiagnostics(test_[i], &rec), want[i]))
        << i;
    EXPECT_EQ(rec.estimator, reference->Name());
  }

  // Only EstimateBatch is timed: one flush of every row.
  const std::vector<Flush> flushes = log.Snapshot();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].rows, static_cast<int>(test_.size()));
  EXPECT_LE(flushes[0].start_ns, flushes[0].end_ns);
}

TEST_P(TimingEstimatorTest, ServiceAnswersThroughDecoratorAreUnchanged) {
  std::shared_ptr<lce::ce::Estimator> reference = Built();
  FlushLog log;
  lce::serve::EstimationService service(db_.get(), lce::serve::BatcherOptions{});
  service.RegisterModel("m", std::make_shared<TimingEstimator>(Built(), &log));
  const std::vector<double> want = reference->EstimateBatch(test_);

  constexpr int kClients = 4;
  std::vector<std::vector<double>> got(kClients,
                                       std::vector<double>(test_.size()));
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < test_.size(); ++i) {
          auto r = service.Estimate("m", test_[i]);
          got[c][i] = r.ok() ? r.value().estimate : -1;
        }
      });
    }
  }
  size_t rows = 0;
  for (const Flush& f : log.Snapshot()) rows += static_cast<size_t>(f.rows);
  EXPECT_EQ(rows, kClients * test_.size());
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < test_.size(); ++i) {
      EXPECT_TRUE(SameBits(got[c][i], want[i])) << c << "/" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ServedModels, TimingEstimatorTest,
                         ::testing::Values("MSCN", "LW-XGB"),
                         [](const auto& info) {
                           return info.param == "LW-XGB" ? std::string("LWXGB")
                                                         : info.param;
                         });

}  // namespace
}  // namespace lcebench
