#include "src/util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/gbdt/gbdt.h"
#include "src/nn/adam.h"
#include "src/nn/mlp.h"
#include "src/storage/datagen.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace lce {
namespace parallel {
namespace {

// Restores the default pool after every test so ordering cannot leak thread
// counts across tests.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCountForTesting(0); }
};

TEST_F(ParallelTest, PoolStartupRunsSubmittedTasksBeforeShutdown) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queue and joins the workers.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST_F(ParallelTest, SingleLanePoolRunsTasksInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST_F(ParallelTest, EmptyRangeNeverInvokesBody) {
  SetThreadCountForTesting(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 2, [&](int64_t, int64_t) { calls.fetch_add(1); });
  ParallelFor(7, 3, 2, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, RangeSmallerThanGrainIsOneChunk) {
  SetThreadCountForTesting(4);
  std::atomic<int> calls{0};
  int64_t seen_begin = -1, seen_end = -1;
  ParallelFor(2, 7, 100, [&](int64_t b, int64_t e) {
    calls.fetch_add(1);
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 7);
}

TEST_F(ParallelTest, ChunksPartitionTheRangeExactly) {
  SetThreadCountForTesting(4);
  std::vector<std::atomic<int>> hits(103);
  ParallelFor(0, 103, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, NonPositiveGrainIsClampedToOne) {
  SetThreadCountForTesting(2);
  std::atomic<int> calls{0};
  ParallelFor(0, 5, 0, [&](int64_t b, int64_t e) {
    EXPECT_EQ(e, b + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 5);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    SetThreadCountForTesting(threads);
    EXPECT_THROW(
        ParallelFor(0, 64, 1,
                    [](int64_t b, int64_t) {
                      if (b == 31) throw std::runtime_error("chunk failure");
                    }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST_F(ParallelTest, NestedParallelForFromWorkerRunsInline) {
  SetThreadCountForTesting(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
      total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(total.load(), 64);
}

// Every lane of a region, the caller's included, runs the regions nested in
// its chunks itself: a nested chunk never lands on another thread.
TEST_F(ParallelTest, NestedChunksRunOnTheirOuterChunksThread) {
  SetThreadCountForTesting(4);
  std::atomic<int> nested_chunks{0};
  std::atomic<int> moved{0};
  std::atomic<bool> caller_ran_a_chunk{false};
  const std::thread::id caller = std::this_thread::get_id();
  // Each lane's first chunk waits until all four lanes hold one, so the
  // caller's lane is sure to run outer chunks too.
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> lanes;
  ParallelFor(0, 16, 1, [&](int64_t, int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    if (outer == caller) caller_ran_a_chunk = true;
    {
      std::unique_lock<std::mutex> lock(mu);
      lanes.insert(outer);
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return lanes.size() >= 4; });
    }
    ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
      nested_chunks.fetch_add(1);
      if (std::this_thread::get_id() != outer) moved.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_chunks.load(), 16 * 8);
  EXPECT_EQ(moved.load(), 0);
  EXPECT_TRUE(caller_ran_a_chunk.load());
  // After the region the caller fans out again.
  std::atomic<int> after{0};
  ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
    after.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(after.load(), 8);
}

TEST_F(ParallelTest, ReduceCombinesChunkResultsInIndexOrder) {
  // The concatenation of chunk begins is order-sensitive, so any
  // scheduling-dependent combine would scramble it.
  auto run = [] {
    return ParallelReduce<std::string>(
        0, 100, 7, std::string(),
        [](int64_t b, int64_t) { return std::to_string(b) + ";"; },
        [](std::string acc, std::string r) { return acc + r; });
  };
  SetThreadCountForTesting(1);
  std::string sequential = run();
  for (int threads : {2, 4, 8}) {
    SetThreadCountForTesting(threads);
    for (int repeat = 0; repeat < 5; ++repeat) {
      EXPECT_EQ(run(), sequential) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelTest, ChunkSeedsAreDistinctAndStable) {
  EXPECT_EQ(ChunkSeed(42, 7), ChunkSeed(42, 7));
  std::vector<uint64_t> seeds;
  for (uint64_t c = 0; c < 64; ++c) seeds.push_back(ChunkSeed(123, c));
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << "chunks " << i << " and " << j;
    }
  }
  EXPECT_NE(ChunkSeed(1, 0), ChunkSeed(2, 0));
}

TEST_F(ParallelTest, SetThreadCountForTestingResizesGlobalPool) {
  SetThreadCountForTesting(3);
  EXPECT_EQ(ThreadCount(), 3);
  SetThreadCountForTesting(1);
  EXPECT_EQ(ThreadCount(), 1);
}

// Trains the same tiny MLP from the same seed at 1 and 4 threads; the
// row-blocked kernels must keep every loss bit-identical.
std::vector<float> TrainMlpLosses() {
  Rng rng(11);
  nn::Mlp mlp({8, 16, 16, 1}, nn::Activation::kRelu, nn::Activation::kSigmoid,
              &rng);
  nn::Matrix x = nn::Matrix::Randn(64, 8, 1.0f, &rng);
  nn::Matrix target(64, 1);
  for (int r = 0; r < 64; ++r) {
    target.At(r, 0) = 0.5f + 0.4f * std::sin(static_cast<float>(r));
  }
  nn::Adam adam(1e-2f);
  std::vector<float> losses;
  for (int step = 0; step < 25; ++step) {
    nn::MlpTape tape;
    nn::Matrix pred = mlp.Forward(x, &tape);
    float loss = 0;
    nn::Matrix grad(64, 1);
    for (int r = 0; r < 64; ++r) {
      float d = pred.At(r, 0) - target.At(r, 0);
      loss += d * d;
      grad.At(r, 0) = 2.0f * d / 64.0f;
    }
    mlp.Backward(x, &tape, grad, /*dx=*/nullptr);
    adam.Step(mlp.Params());
    losses.push_back(loss / 64.0f);
  }
  return losses;
}

TEST_F(ParallelTest, MlpTrainingLossesIdenticalAtOneAndFourThreads) {
  SetThreadCountForTesting(1);
  std::vector<float> one = TrainMlpLosses();
  SetThreadCountForTesting(4);
  std::vector<float> four = TrainMlpLosses();
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "step " << i;  // bit-identical, not NEAR
  }
}

// Fits the same GBDT from the same data at 1 and 4 threads; the
// feature-order split combine must pick identical splits everywhere.
gbdt::GradientBoosting FitGbdt() {
  gbdt::GradientBoosting::Options opts;
  opts.num_trees = 8;
  opts.max_bins = 32;
  gbdt::GradientBoosting model(opts);
  Rng rng(29);
  std::vector<std::vector<float>> rows;
  std::vector<float> targets;
  for (int i = 0; i < 500; ++i) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
    rows.push_back(row);
    targets.push_back(row[0] * 3.0f - row[3] + row[1] * row[1] +
                      static_cast<float>(rng.Gaussian()) * 0.1f);
  }
  model.Fit(rows, targets);
  return model;
}

// Labels the same workload at 1 and 4 threads: queries, cardinalities, and
// the caller Rng's final state must all be bit-identical, because parallel
// labeling replays the sequential generation stream.
std::pair<std::vector<query::LabeledQuery>, uint64_t> LabelWorkload() {
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.03), 3);
  workload::WorkloadOptions opts;
  opts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), opts);
  Rng rng(17);
  auto queries = gen.GenerateLabeled(70, &rng);
  return {std::move(queries), rng.NextU64()};
}

TEST_F(ParallelTest, WorkloadLabelingIdenticalAtOneAndFourThreads) {
  SetThreadCountForTesting(1);
  auto one = LabelWorkload();
  SetThreadCountForTesting(4);
  auto four = LabelWorkload();
  ASSERT_EQ(one.first.size(), four.first.size());
  for (size_t i = 0; i < one.first.size(); ++i) {
    const query::LabeledQuery& a = one.first[i];
    const query::LabeledQuery& b = four.first[i];
    EXPECT_EQ(a.cardinality, b.cardinality) << i;
    EXPECT_EQ(a.q.tables, b.q.tables) << i;
    EXPECT_EQ(a.q.join_edges, b.q.join_edges) << i;
    ASSERT_EQ(a.q.predicates.size(), b.q.predicates.size()) << i;
    for (size_t p = 0; p < a.q.predicates.size(); ++p) {
      EXPECT_TRUE(a.q.predicates[p].col == b.q.predicates[p].col);
      EXPECT_EQ(a.q.predicates[p].lo, b.q.predicates[p].lo);
      EXPECT_EQ(a.q.predicates[p].hi, b.q.predicates[p].hi);
    }
  }
  EXPECT_EQ(one.second, four.second);  // same final Rng state
}

TEST_F(ParallelTest, GbdtSplitsIdenticalAtOneAndFourThreads) {
  SetThreadCountForTesting(1);
  gbdt::GradientBoosting one = FitGbdt();
  SetThreadCountForTesting(4);
  gbdt::GradientBoosting four = FitGbdt();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
    EXPECT_EQ(one.Predict(row), four.Predict(row)) << "probe " << i;
  }
}

}  // namespace
}  // namespace parallel
}  // namespace lce
