// Estimation service: the one model table (versioning, a swap that lands
// between flushes, sorted listing), micro-batcher flush semantics (bypass,
// inline within the pool's lanes, coalescing past them, max-batch cap,
// adaptive single-client fast path), and the SQL front end end-to-end —
// including that serving a query answers bit-identically to calling the
// estimator directly, also while the model is re-registered and for explain
// requests, and that a request racing a model's first registration gets a
// Status.

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/query/query.h"
#include "src/serve/batcher.h"
#include "src/serve/service.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace serve {
namespace {

/// Minimal built estimator answering a constant; lets service tests observe
/// which model build served a request.
class ConstEstimator : public ce::Estimator {
 public:
  explicit ConstEstimator(double value) : value_(value) {}
  std::string Name() const override { return "Const"; }
  Status Build(const storage::Database&,
               const std::vector<query::LabeledQuery>&) override {
    return Status::OK();
  }
  uint64_t SizeBytes() const override { return sizeof(double); }

 protected:
  double EstimateImpl(const query::Query&, ce::ExplainRecord*) const override {
    return value_;
  }

 private:
  double value_;
};

/// ConstEstimator whose estimates block until Release(): holds a flush
/// inside the estimator, after it copied its build. An estimate not
/// released within 10 s answers 0.
class LatchedEstimator : public ConstEstimator {
 public:
  using ConstEstimator::ConstEstimator;
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  double EstimateImpl(const query::Query& q,
                      ce::ExplainRecord* rec) const override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return released_; })) {
      return 0;
    }
    return ConstEstimator::EstimateImpl(q, rec);
  }

 private:
  // A test latch, not model state: the const estimate signals through it.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

query::Query OneTableQuery() {
  query::Query q;
  q.tables = {0};
  return q;
}

// Pins the pool to `lanes` lanes, the batcher's inline limit, and restores
// the default on scope exit so a failing case cannot leak it.
struct LaneGuard {
  explicit LaneGuard(int lanes) { parallel::SetThreadCountForTesting(lanes); }
  ~LaneGuard() { parallel::SetThreadCountForTesting(0); }
};

TEST(MicroBatcherTest, DisabledExecutesEveryRequestAlone) {
  BatcherOptions opts;
  opts.enabled = false;
  std::vector<size_t> batch_sizes;
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    batch_sizes.push_back(queries.size());
    estimates->assign(queries.size(), 5.0);
    *version = 7;
  });
  query::Query q = OneTableQuery();
  for (int i = 0; i < 3; ++i) {
    MicroBatcher::Ticket t = batcher.Submit(q);
    EXPECT_EQ(t.estimate, 5.0);
    EXPECT_EQ(t.model_version, 7u);
    EXPECT_EQ(t.batch_size, 1);
  }
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1, 1, 1}));
}

TEST(MicroBatcherTest, LoneClientDoesNotWaitOutTheDeadline) {
  // One lane, held by a first request that runs inline until released, so
  // the second request takes the coalescing path alone.
  LaneGuard lanes(1);
  BatcherOptions opts;
  opts.deadline_us = 5'000'000;  // 5s: a deadline wait shows in queue_wait
  std::mutex mu;
  std::condition_variable cv;
  int calls = 0;
  bool release = false;
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    std::unique_lock<std::mutex> lock(mu);
    if (++calls == 1) {
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
    }
    estimates->assign(queries.size(), 1.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  std::thread holder([&] { batcher.Submit(q); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return calls == 1; });
  }
  // The adaptive target sees one in-flight request already queued and
  // flushes it at once instead of waiting out the deadline.
  MicroBatcher::Ticket t = batcher.Submit(q);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_EQ(t.batch_size, 1);
  EXPECT_LT(t.queue_wait_us, 1e6);
}

TEST(MicroBatcherTest, RequestsWithinTheLanesRunInlineAndConcurrently) {
  constexpr int kClients = 4;
  LaneGuard lanes(kClients);
  BatcherOptions opts;
  opts.deadline_us = 5'000'000;
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  bool all_inside = false;
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    {
      // Each call waits until all four are inside at once, which only
      // happens if nothing serializes them.
      std::unique_lock<std::mutex> lock(mu);
      if (++inside == kClients) all_inside = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return all_inside; });
    }
    estimates->assign(queries.size(), 2.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  std::vector<MicroBatcher::Ticket> tickets(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { tickets[i] = batcher.Submit(q); });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(all_inside) << "requests within the lanes were serialized";
  for (const MicroBatcher::Ticket& t : tickets) {
    EXPECT_EQ(t.estimate, 2.0);
    EXPECT_EQ(t.batch_size, 1);
    EXPECT_EQ(t.queue_wait_us, 0.0);
  }
}

TEST(MicroBatcherTest, RequestsPastTheLanesCoalesce) {
  LaneGuard lanes(2);
  BatcherOptions opts;
  opts.deadline_us = 50'000;
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    {
      // Every call holds its requests in flight until the gate opens.
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return open; });
    }
    estimates->assign(queries.size(), 3.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  constexpr int kClients = 8;
  std::vector<MicroBatcher::Ticket> tickets(kClients);
  std::vector<std::thread> clients;
  auto start = [&](int i) {
    clients.emplace_back([&, i] { tickets[i] = batcher.Submit(q); });
  };
  auto await_entered = [&](int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered == n; });
  };
  // Clients 0 and 1 take both lanes and run inline.
  start(0);
  start(1);
  await_entered(2);
  // Client 2 finds the lanes busy, queues, and leads a flush of itself.
  start(2);
  await_entered(3);
  // Clients 3..7 queue behind that flush.
  for (int i = 3; i < kClients; ++i) start(i);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) EXPECT_EQ(tickets[i].estimate, 3.0);
  for (int i : {0, 1}) {
    EXPECT_EQ(tickets[i].batch_size, 1) << i;
    EXPECT_EQ(tickets[i].queue_wait_us, 0.0) << i;
  }
  EXPECT_EQ(tickets[2].batch_size, 1);
  for (int i = 3; i < kClients; ++i) {
    EXPECT_EQ(tickets[i].batch_size, kClients - 3) << i;
    EXPECT_GT(tickets[i].queue_wait_us, 0.0) << i;
  }
  EXPECT_EQ(entered, 4);  // two inline calls, then two flushes
}

TEST(MicroBatcherTest, CoalescesConcurrentClientsUpToMaxBatch) {
  // One lane: the first client runs inline and every other one coalesces.
  LaneGuard lanes(1);
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.deadline_us = 200'000;
  std::atomic<int> flushes{0};
  std::atomic<int> served{0};
  std::atomic<int> oversized{0};
  MicroBatcher batcher(opts, [&](const std::vector<query::Query>& queries,
                                 std::vector<double>* estimates,
                                 uint64_t* version) {
    flushes.fetch_add(1);
    served.fetch_add(static_cast<int>(queries.size()));
    if (queries.size() > 4) oversized.fetch_add(1);
    // Hold the flush briefly so the remaining clients pile up and the next
    // leader finds a full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    estimates->assign(queries.size(), 3.0);
    *version = 1;
  });
  query::Query q = OneTableQuery();
  constexpr int kClients = 9;
  std::vector<std::thread> clients;
  std::vector<MicroBatcher::Ticket> tickets(kClients);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { tickets[i] = batcher.Submit(q); });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(served.load(), kClients);
  EXPECT_EQ(oversized.load(), 0) << "a flush exceeded max_batch";
  // 9 clients at max_batch 4 need at least 3 flushes; fewer than 9 proves
  // coalescing actually happened.
  EXPECT_GE(flushes.load(), 3);
  EXPECT_LT(flushes.load(), kClients);
  for (const MicroBatcher::Ticket& t : tickets) {
    EXPECT_EQ(t.estimate, 3.0);
    EXPECT_GE(t.batch_size, 1);
    EXPECT_LE(t.batch_size, 4);
  }
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.03), 1);
  }
  std::unique_ptr<storage::Database> db_;
};

TEST_F(ServiceTest, AnswersSqlWithModelAndVersion) {
  EstimationService service(db_.get());
  EXPECT_EQ(service.RegisterModel("fcn",
                                  std::make_shared<ConstEstimator>(42.0)),
            1u);
  auto resp = service.EstimateSql(
      "fcn", "SELECT COUNT(*) FROM customer WHERE customer.c_nationkey = 7;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().estimate, 42.0);
  EXPECT_EQ(resp.value().model, "fcn");
  EXPECT_EQ(resp.value().model_version, 1u);
  EXPECT_GE(resp.value().batch_size, 1);
}

TEST_F(ServiceTest, SwappedModelServesNextRequestAtNewVersion) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(1.0));
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(2.0));
  auto resp = service.EstimateSql("fcn", "SELECT COUNT(*) FROM customer;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().estimate, 2.0);
  EXPECT_EQ(resp.value().model_version, 2u);
  auto models = service.ListModels();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].second, 2u);
}

TEST_F(ServiceTest, RegisterBumpsVersionAndSwapsAtomically) {
  EstimationService service(db_.get());
  auto first = std::make_shared<LatchedEstimator>(1.0);
  EXPECT_EQ(service.RegisterModel("fcn", first), 1u);
  Result<EstimateResponse> held = Status::Internal("unset");
  std::thread client([&] { held = service.Estimate("fcn", OneTableQuery()); });
  first->AwaitEntered();
  // The swap lands while that flush is inside build 1. Had it waited for
  // the flush, the flush would have timed out and answered 0.
  EXPECT_EQ(service.RegisterModel("fcn", std::make_shared<ConstEstimator>(2.0)),
            2u);
  first->Release();
  client.join();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held.value().estimate, 1.0);
  EXPECT_EQ(held.value().model_version, 1u);
  auto next = service.Estimate("fcn", OneTableQuery());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value().estimate, 2.0);
  EXPECT_EQ(next.value().model_version, 2u);
}

TEST_F(ServiceTest, ListsEveryModelSorted) {
  EstimationService service(db_.get());
  EXPECT_TRUE(service.ListModels().empty());
  service.RegisterModel("mscn", std::make_shared<ConstEstimator>(1.0));
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(1.0));
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(2.0));
  EXPECT_EQ(service.ListModels(),
            (std::vector<std::pair<std::string, uint64_t>>{{"fcn", 2},
                                                           {"mscn", 1}}));
}

TEST_F(ServiceTest, MalformedSqlReturnsStatusNotCrash) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(1.0));
  for (const char* sql :
       {"SELECT COUNT(*) FROM",                     // truncated
        "DROP TABLE customer;",                      // wrong statement
        "SELECT COUNT(*) FROM nope;",                // unknown table
        "SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal = 99999999999999999999;",  // overflow literal
        ""}) {
    auto resp = service.EstimateSql("fcn", sql);
    EXPECT_FALSE(resp.ok()) << sql;
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(ServiceTest, UnknownModelReturnsNotFound) {
  EstimationService service(db_.get());
  auto resp = service.EstimateSql("ghost", "SELECT COUNT(*) FROM customer;");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, ExplainCarriesDiagnosticsAndMatchesEstimate) {
  EstimationService service(db_.get());
  service.RegisterModel("fcn", std::make_shared<ConstEstimator>(42.0));
  auto resp = service.ExplainSql(
      "fcn", "SELECT COUNT(*) FROM customer WHERE customer.c_nationkey = 7;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().response.estimate, 42.0);
  EXPECT_EQ(resp.value().record.estimate, 42.0);
  EXPECT_EQ(resp.value().record.estimator, "Const");
  EXPECT_EQ(resp.value().record.num_tables, 1);
  EXPECT_EQ(resp.value().record.num_predicates, 1);
}

// End-to-end bit-identity: many clients hammering the batched service get
// exactly the answers a twin estimator gives query by query.
TEST_F(ServiceTest, BatchedServingIsBitIdenticalToDirectCalls) {
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db_.get(), wopts);
  Rng rng(5);
  std::vector<query::LabeledQuery> train = gen.GenerateLabeled(200, &rng);
  std::vector<query::Query> test;
  for (const auto& lq : gen.GenerateLabeled(32, &rng)) test.push_back(lq.q);

  ce::NeuralOptions fast;
  fast.epochs = 4;
  fast.hidden_dim = 16;
  auto served = ce::MakeEstimator("FCN", fast, 11);
  auto reference = ce::MakeEstimator("FCN", fast, 11);
  ASSERT_TRUE(served->Build(*db_, train).ok());
  ASSERT_TRUE(reference->Build(*db_, train).ok());

  BatcherOptions opts;  // batching on, defaults
  EstimationService service(db_.get(), opts);
  service.RegisterModel("fcn", std::move(served));

  std::vector<double> expected;
  for (const query::Query& q : test) {
    expected.push_back(reference->EstimateCardinality(q));
  }

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::vector<double>> got(kClients,
                                       std::vector<double>(test.size()));
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < test.size(); ++i) {
        auto resp = service.Estimate("fcn", test[i]);
        ASSERT_TRUE(resp.ok());
        got[c][i] = resp.value().estimate;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(got[c][i], expected[i]) << "client " << c << " query " << i;
    }
  }
}

// A request that arrives while its model's first RegisterModel is still
// running either gets NotFound or the registered model's answer, never a
// crash: a request that finds the model's state must find a published build.
TEST_F(ServiceTest, RequestRacingFirstRegistrationGetsNotFoundOrAnAnswer) {
  const query::Query q = OneTableQuery();
  constexpr int kEstimators = 3;  // clients calling Estimate
  for (int trial = 0; trial < 50; ++trial) {
    EstimationService service(db_.get());
    std::atomic<bool> stop{false};
    std::atomic<int> spinning{0};
    std::atomic<int> answered{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kEstimators; ++c) {
      clients.emplace_back([&] {
        bool counted = false;
        while (!stop.load()) {
          auto r = service.Estimate("m", q);
          if (r.ok()) {
            if (r.value().estimate != 7.0) bad.fetch_add(1);
            answered.fetch_add(1);
          } else if (r.status().code() != StatusCode::kNotFound) {
            bad.fetch_add(1);
          }
          if (!counted) spinning.fetch_add(1);
          counted = true;
        }
      });
    }
    // One more client takes the explain path.
    clients.emplace_back([&] {
      while (!stop.load()) {
        auto r = service.ExplainSql("m", "SELECT COUNT(*) FROM customer;");
        if (r.ok() ? r.value().response.estimate != 7.0
                   : r.status().code() != StatusCode::kNotFound) {
          bad.fetch_add(1);
        }
      }
    });
    // Register only once every Estimate client is looping.
    while (spinning.load() < kEstimators) std::this_thread::yield();
    service.RegisterModel("m", std::make_shared<ConstEstimator>(7.0));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (answered.load() < kEstimators &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(bad.load(), 0) << "trial " << trial;
    EXPECT_GE(answered.load(), kEstimators) << "trial " << trial;
  }
}

// Clients of one model keep getting the exact answer of the build that
// their response names while another thread swaps between two builds. One
// lane and six clients: requests run both inline and coalesced, and two of
// the clients explain instead, outside the batcher.
TEST_F(ServiceTest, AnswersStayBitIdenticalWhileAnotherThreadReRegisters) {
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db_.get(), wopts);
  Rng rng(6);
  std::vector<query::LabeledQuery> train = gen.GenerateLabeled(200, &rng);
  std::vector<query::Query> test;
  for (const auto& lq : gen.GenerateLabeled(24, &rng)) test.push_back(lq.q);

  ce::NeuralOptions fast;
  fast.epochs = 4;
  fast.hidden_dim = 16;
  std::shared_ptr<ce::Estimator> builds[2] = {
      ce::MakeEstimator("FCN", fast, 11), ce::MakeEstimator("FCN", fast, 12)};
  std::vector<double> expected[2];
  for (int b = 0; b < 2; ++b) {
    ASSERT_TRUE(builds[b]->Build(*db_, train).ok());
    expected[b] = builds[b]->EstimateBatch(test);
  }
  ASSERT_NE(expected[0], expected[1]);
  constexpr int kExplainers = 2;  // clients that send each query as SQL
  std::vector<std::string> sql;
  for (const query::Query& q : test) {
    sql.push_back(query::ToSql(q, db_->schema()));
  }

  LaneGuard lanes(1);
  EstimationService service(db_.get(), BatcherOptions{});
  // Odd versions serve builds[0], even versions builds[1].
  service.RegisterModel("fcn", builds[0]);
  std::atomic<bool> done{false};
  std::thread registrar([&] {
    for (int v = 2; !done.load(); ++v) {
      service.RegisterModel("fcn", builds[(v - 1) % 2]);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  constexpr int kClients = 6;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> queued{0};
  std::atomic<int> batched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool explains = c >= kClients - kExplainers;
      for (int r = 0; r < kRounds; ++r) {
        for (size_t k = 0; k < test.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(c) * 5) % test.size();
          EstimateResponse e;  // model_version stays 0 if the request fails
          if (explains) {
            auto resp = service.ExplainSql("fcn", sql[i]);
            if (resp.ok()) e = resp.value().response;
          } else {
            auto resp = service.Estimate("fcn", test[i]);
            if (resp.ok()) e = resp.value();
          }
          if (e.model_version == 0) {
            mismatches.fetch_add(1);
            continue;
          }
          const double want = expected[(e.model_version - 1) % 2][i];
          if (std::bit_cast<uint64_t>(e.estimate) !=
              std::bit_cast<uint64_t>(want)) {
            mismatches.fetch_add(1);
          }
          if (e.queue_wait_us > 0) queued.fetch_add(1);
          if (e.batch_size > 1) batched.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  registrar.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.ListModels()[0].second, 2u) << "no swap overlapped";
  // Informational: how many answers took the queue, and how many came from
  // flushes of more than one request.
  RecordProperty("queued_answers", queued.load());
  RecordProperty("batched_answers", batched.load());
}

}  // namespace
}  // namespace serve
}  // namespace lce
