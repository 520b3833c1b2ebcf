#include "src/util/telemetry/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/factory.h"
#include "src/storage/datagen.h"
#include "src/util/json_writer.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/run_manifest.h"
#include "src/util/telemetry/trace.h"
#include "src/workload/generator.h"

namespace lce {
namespace telemetry {
namespace {

// Every test starts from a clean, enabled registry and a disabled trace, and
// restores the env-derived state afterwards so ordering cannot leak.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabledForTesting(1);
    SetTracePathForTesting("");
    ClearTraceForTesting();
    MetricsRegistry::Global().ResetForTesting();
  }
  void TearDown() override {
    SetMetricsEnabledForTesting(-1);
    SetTracePathForTesting(nullptr);
    ClearTraceForTesting();
    MetricsRegistry::Global().ResetForTesting();
    parallel::SetThreadCountForTesting(0);
  }
};

TEST_F(TelemetryTest, CounterAccumulatesAcrossPoolThreads) {
  parallel::SetThreadCountForTesting(4);
  Counter& c = MetricsRegistry::Global().counter("test.parallel_adds");
  parallel::ParallelFor(0, 1000, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) c.Add(2);
  });
  EXPECT_EQ(c.Value(), 2000u);
}

TEST_F(TelemetryTest, DisabledCounterRecordsNothing) {
  SetMetricsEnabledForTesting(0);
  Counter& c = MetricsRegistry::Global().counter("test.disabled");
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Value(), 0u);
  c.AddAlways(3);  // explicit bypass still records
  EXPECT_EQ(c.Value(), 3u);
}

TEST_F(TelemetryTest, RegistryReturnsStableHandles) {
  Counter& a = MetricsRegistry::Global().counter("test.stable");
  a.Add(1);
  MetricsRegistry::Global().ResetForTesting();
  EXPECT_EQ(a.Value(), 0u);  // zeroed, not invalidated
  Counter& b = MetricsRegistry::Global().counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST_F(TelemetryTest, GaugeKeepsLastValue) {
  Gauge& g = MetricsRegistry::Global().gauge("test.gauge");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.Value(), -2.25);
}

TEST_F(TelemetryTest, HistogramQuantilesLandWithinBucketResolution) {
  Histogram& h = MetricsRegistry::Global().histogram("test.latency");
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.mean, 500.5, 0.5);  // sum is exact, count is exact
  // Log buckets grow by 2^(1/3) (~26%); allow ~30% relative error.
  EXPECT_NEAR(snap.p50, 500.0, 150.0);
  EXPECT_NEAR(snap.p95, 950.0, 285.0);
  EXPECT_NEAR(snap.p99, 990.0, 300.0);
  EXPECT_GE(snap.max, 1000.0 * 0.74);
}

TEST_F(TelemetryTest, HistogramUnderflowReportsMinValue) {
  Histogram& h = MetricsRegistry::Global().histogram("test.tiny");
  h.Observe(0.0);
  h.Observe(1e-9);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.p50, Histogram::kMinValue);
}

TEST_F(TelemetryTest, WeightedObservationsKeepCountSumAndBounds) {
  Histogram& h = MetricsRegistry::Global().histogram("test.weighted");
  h.ObserveCountAlways(10.0, 5);  // five queries at 10 each
  h.ObserveCountAlways(100.0, 1);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 150.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.min, 10.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST_F(TelemetryTest, ScopedPhaseAccumulatesUnderPhaseScope) {
  {
    PhaseScope scope("EstA");
    ScopedPhase phase("unit/step");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  uint64_t ns =
      MetricsRegistry::Global().counter("phase.EstA:unit/step.ns").Value();
  uint64_t calls =
      MetricsRegistry::Global().counter("phase.EstA:unit/step.calls").Value();
  EXPECT_EQ(calls, 1u);
  EXPECT_GE(ns, 1'000'000u);  // at least 1ms of the 2ms sleep
}

// Recording is lossless: a burst of phase closes on several threads, with
// metrics and tracing on, lands every call in the counters and every span in
// the trace.
TEST_F(TelemetryTest, ConcurrentPhasesRecordEveryCallAndSpan) {
  SetTracePathForTesting("unused_lossless_path.json");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      PhaseScope scope("Burst");
      for (int i = 0; i < kPerThread; ++i) ScopedPhase phase("unit/close");
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(
      MetricsRegistry::Global().counter("phase.Burst:unit/close.calls").Value(),
      uint64_t{kThreads * kPerThread});
  int spans = 0;
  for (const TraceEvent& e : SnapshotTraceEventsForTesting()) {
    if (e.name == "Burst:unit/close") ++spans;
  }
  EXPECT_EQ(spans, kThreads * kPerThread);
}

TEST_F(TelemetryTest, PhaseScopeNestsAndRestores) {
  EXPECT_EQ(PhaseScope::Current(), "");
  {
    PhaseScope outer("outer");
    EXPECT_EQ(PhaseScope::Current(), "outer");
    {
      PhaseScope inner("inner");
      EXPECT_EQ(PhaseScope::Current(), "inner");
    }
    EXPECT_EQ(PhaseScope::Current(), "outer");
  }
  EXPECT_EQ(PhaseScope::Current(), "");
}

TEST_F(TelemetryTest, TraceSpansRecordNestingAndThreadAttribution) {
  SetTracePathForTesting("unused_inline_path.json");
  {
    TraceSpan outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      TraceSpan inner("inner");
      inner.AddArg("k", 42.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  parallel::SetThreadCountForTesting(4);
  parallel::ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      TraceSpan span("worker_span");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<TraceEvent> events = SnapshotTraceEventsForTesting();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  std::set<uint32_t> worker_tids;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "worker_span") worker_tids.insert(e.tid);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Nesting: inner is contained in outer, on the same thread.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  ASSERT_EQ(inner->args.size(), 1u);
  EXPECT_EQ(inner->args[0].first, "k");
  EXPECT_DOUBLE_EQ(inner->args[0].second, 42.0);
  // 8 spans of ~2ms across a 4-lane pool: at least two distinct threads.
  EXPECT_GE(worker_tids.size(), 2u);
}

// A thread buffers spans and their args in separate fixed-size blocks; each
// span must come back with exactly its own args after both have filled
// several blocks.
TEST_F(TelemetryTest, ArgsStayWithTheirSpansAcrossBufferBlocks) {
  SetTracePathForTesting("unused_args_path.json");
  constexpr int kSpans = 10000;
  for (int i = 0; i < kSpans; ++i) {
    TraceSpan span("args_span");
    for (int a = 0; a < i % 3; ++a) {
      span.AddArg(a == 0 ? "first" : "second", i + a);
    }
  }
  int seen = 0;
  for (const TraceEvent& e : SnapshotTraceEventsForTesting()) {
    if (e.name != "args_span") continue;
    const int i = seen++;
    ASSERT_EQ(e.args.size(), static_cast<size_t>(i % 3)) << "span " << i;
    for (size_t a = 0; a < e.args.size(); ++a) {
      EXPECT_EQ(e.args[a].first, a == 0 ? "first" : "second");
      EXPECT_DOUBLE_EQ(e.args[a].second, static_cast<double>(i + a));
    }
  }
  EXPECT_EQ(seen, kSpans);
}

TEST_F(TelemetryTest, TraceExportIsParseableChromeJson) {
  std::string path = ::testing::TempDir() + "/lce_trace_test.json";
  SetTracePathForTesting(path.c_str());
  SetCurrentThreadName("telemetry-test-main");
  {
    TraceSpan span(std::string("tricky \"name\"\\with\nescapes"));
    span.AddArg("x", 1.5);
  }
  ASSERT_TRUE(WriteTraceNow().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  json::JsonValue doc;
  std::string error;
  ASSERT_TRUE(json::Parse(buf.str(), &doc, &error)) << error;

  const json::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_span = false, found_thread_name = false;
  for (const json::JsonValue& e : events->array) {
    const json::JsonValue* ph = e.Find("ph");
    const json::JsonValue* name = e.Find("name");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    if (ph->string == "X" && name->string == "tricky \"name\"\\with\nescapes") {
      found_span = true;
      EXPECT_GE(e.Find("dur")->number, 0.0);
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("x")->number, 1.5);
    }
    if (ph->string == "M" && name->string == "thread_name") {
      found_thread_name = true;
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_thread_name);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, RegistryJsonSnapshotParses) {
  MetricsRegistry::Global().counter("test.json_counter").Add(7);
  MetricsRegistry::Global().gauge("test.json_gauge").Set(2.5);
  MetricsRegistry::Global().histogram("test.json_hist").Observe(10.0);
  std::string out;
  JsonWriter w(&out);
  MetricsRegistry::Global().WriteJson(&w);
  json::JsonValue doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  EXPECT_DOUBLE_EQ(doc.Find("counters")->Find("test.json_counter")->number,
                   7.0);
  EXPECT_DOUBLE_EQ(doc.Find("gauges")->Find("test.json_gauge")->number, 2.5);
  EXPECT_DOUBLE_EQ(doc.Find("histograms")->Find("test.json_hist")
                       ->Find("count")->number,
                   1.0);
}

TEST_F(TelemetryTest, RunManifestParsesAndListsPhases) {
  {
    PhaseScope scope("ManifestEst");
    ScopedPhase phase("unit/manifest_step");
  }
  std::string out = RunManifestJson("unit_test_bench", 1.25);
  json::JsonValue doc;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("bench")->string, "unit_test_bench");
  EXPECT_DOUBLE_EQ(doc.Find("wall_seconds")->number, 1.25);
  EXPECT_FALSE(doc.Find("git_commit")->string.empty());
  const json::JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  bool found = false;
  for (const json::JsonValue& p : phases->array) {
    if (p.Find("name")->string == "ManifestEst:unit/manifest_step") {
      found = true;
      EXPECT_DOUBLE_EQ(p.Find("calls")->number, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

// The acceptance bar for the whole subsystem: enabling metrics + tracing must
// not move a single bit of estimator output. LW-XGB exercises the GBDT path
// (split search, binning), FCN the NN path (per-epoch telemetry).
TEST_F(TelemetryTest, PoolTasksNestUnderSubmittingSpan) {
  // Cross-thread propagation: ThreadPool::Submit captures the submitter's
  // current span id, and spans opened inside pool tasks parent under it —
  // so a 4-thread training trace nests lane work under the build span.
  SetTracePathForTesting("unused_pool_parent_path.json");
  parallel::SetThreadCountForTesting(4);
  uint64_t submit_span_id = 0;
  {
    TraceSpan submit("submit_parent");
    submit_span_id = CurrentSpanId();
    parallel::ParallelFor(0, 16, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        TraceSpan span("pool_task");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  EXPECT_NE(submit_span_id, 0u);

  std::vector<TraceEvent> events = SnapshotTraceEventsForTesting();
  std::map<uint64_t, const TraceEvent*> by_id;
  for (const TraceEvent& e : events) by_id[e.id] = &e;
  int pool_tasks = 0;
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (e.name != "pool_task") continue;
    ++pool_tasks;
    tids.insert(e.tid);
    EXPECT_NE(e.parent_id, 0u);
    // The parent chain must reach the submitting span (directly for chunks
    // run inline on the caller thread, via adoption for pool lanes).
    uint64_t p = e.parent_id;
    int hops = 0;
    while (p != 0 && p != submit_span_id && hops < 8) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      p = it->second->parent_id;
      ++hops;
    }
    EXPECT_EQ(p, submit_span_id) << "pool_task not nested under submitter";
  }
  EXPECT_EQ(pool_tasks, 16);
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(TelemetryTest, TraceExportEmitsFlowEventsForCrossThreadEdges) {
  std::string path = ::testing::TempDir() + "/lce_trace_flow_test.json";
  SetTracePathForTesting(path.c_str());
  parallel::SetThreadCountForTesting(4);
  {
    TraceSpan submit("flow_parent");
    parallel::ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        TraceSpan span("flow_child");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ASSERT_TRUE(WriteTraceNow().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  json::JsonValue doc;
  std::string error;
  ASSERT_TRUE(json::Parse(buf.str(), &doc, &error)) << error;
  int flow_starts = 0, flow_finishes = 0;
  bool span_ids_exported = false;
  for (const json::JsonValue& e : doc.Find("traceEvents")->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_finishes;
    if (ph == "X" && e.Find("name")->string == "flow_child") {
      const json::JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      span_ids_exported = args->Find("span_id") != nullptr &&
                          args->Find("parent_span_id") != nullptr;
    }
  }
  // 8 one-ms children across 4 lanes: at least one ran off-thread, and every
  // flow start pairs with a finish.
  EXPECT_GT(flow_starts, 0);
  EXPECT_EQ(flow_starts, flow_finishes);
  EXPECT_TRUE(span_ids_exported);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, EstimatesBitIdenticalWithTelemetryOnAndOff) {
  auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
  workload::WorkloadOptions wopts;
  wopts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), wopts);
  Rng rng(11);
  auto train = gen.GenerateLabeled(60, &rng);
  auto test = gen.GenerateLabeled(20, &rng);

  ce::NeuralOptions neural;
  neural.epochs = 3;
  neural.hidden_dim = 16;

  auto estimates = [&](const std::string& name) {
    auto est = ce::MakeEstimator(name, neural, 42);
    EXPECT_TRUE(est->Build(*db, train).ok());
    std::vector<double> out;
    for (const auto& lq : test) out.push_back(est->EstimateCardinality(lq.q));
    return out;
  };

  for (const std::string& name : {std::string("LW-XGB"), std::string("FCN")}) {
    SetMetricsEnabledForTesting(0);
    SetTracePathForTesting("");
    std::vector<double> off = estimates(name);

    SetMetricsEnabledForTesting(1);
    SetTracePathForTesting("unused_bit_identity_path.json");
    std::vector<double> on = estimates(name);

    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_EQ(off[i], on[i]) << name << " diverged at query " << i;
    }
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
