// Micro-benchmarks (google-benchmark) of the hot kernels underneath the
// estimators: matrix multiply, exact executor counting, filter scans, hash
// index probes, and per-model inference.
//
// The custom main() additionally sweeps the thread-pool size over the
// parallel kernels (MatMul and workload labeling) and writes the wall-clock
// results to BENCH_parallel.json in the bench output directory, so CI and the
// experiment scripts can chart threads-vs-speedup without parsing
// human-oriented benchmark output.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <cmath>

#include "src/ce/factory.h"
#include "src/exec/executor.h"
#include "src/exec/hash_index.h"
#include "src/gbdt/gbdt.h"
#include "src/nn/matrix.h"
#include "src/util/telemetry/telemetry.h"
#include "src/storage/datagen.h"
#include "bench/bench_common.h"
#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/simd.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/run_manifest.h"
#include "src/util/telemetry/trace.h"
#include "src/util/timer.h"
#include "src/workload/generator.h"

namespace {

using namespace lce;

void BM_MatMul(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Matrix a = nn::Matrix::Randn(n, n, 1.0f, &rng);
  nn::Matrix b = nn::Matrix::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    nn::Matrix c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Kernel-path A/B: Args are {n, simd} with simd 0 = naive reference,
// 1 = blocked/vectorized. items_per_second is FLOP/s.
void BM_MatMulKernel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  simd::SetSimdEnabledForTesting(state.range(1) != 0 ? 1 : 0);
  Rng rng(1);
  nn::Matrix a = nn::Matrix::Randn(n, n, 1.0f, &rng);
  nn::Matrix b = nn::Matrix::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    nn::Matrix c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
  simd::SetSimdEnabledForTesting(-1);
}
BENCHMARK(BM_MatMulKernel)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({384, 0})
    ->Args({384, 1});

// Batched GBDT traversal vs per-row prediction over the same fitted
// ensemble. Args: {num_rows, simd}. items_per_second is rows/s.
void BM_GbdtPredictBatch(benchmark::State& state) {
  int num_rows = static_cast<int>(state.range(0));
  simd::SetSimdEnabledForTesting(state.range(1) != 0 ? 1 : 0);
  static std::unique_ptr<gbdt::GradientBoosting> model = [] {
    Rng rng(11);
    std::vector<std::vector<float>> rows;
    std::vector<float> targets;
    for (int i = 0; i < 4000; ++i) {
      float a = static_cast<float>(rng.Uniform());
      float b = static_cast<float>(rng.Uniform(-2, 2));
      float c = static_cast<float>(rng.Gaussian());
      float d = static_cast<float>(rng.Uniform(0, 10));
      rows.push_back({a, b, c, d});
      targets.push_back(std::sin(5 * a) + 0.3f * b * c + 0.05f * d);
    }
    auto m = std::make_unique<gbdt::GradientBoosting>();
    m->Fit(rows, targets);
    return m;
  }();
  Rng rng(12);
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < num_rows; ++i) {
    rows.push_back({static_cast<float>(rng.Uniform()),
                    static_cast<float>(rng.Uniform(-2, 2)),
                    static_cast<float>(rng.Gaussian()),
                    static_cast<float>(rng.Uniform(0, 10))});
  }
  for (auto _ : state) {
    std::vector<float> preds = model->PredictBatch(rows);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() * num_rows);
  simd::SetSimdEnabledForTesting(-1);
}
BENCHMARK(BM_GbdtPredictBatch)->Args({2048, 0})->Args({2048, 1});

// Same kernel swept over pool sizes: Args are {n, threads}.
void BM_MatMulThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  parallel::SetThreadCountForTesting(threads);
  Rng rng(1);
  nn::Matrix a = nn::Matrix::Randn(n, n, 1.0f, &rng);
  nn::Matrix b = nn::Matrix::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    nn::Matrix c = nn::MatMul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
  parallel::SetThreadCountForTesting(0);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

// Ground-truth labeling (the dominant workload-prep cost) swept over pool
// sizes: Arg is the thread count.
void BM_LabelingThreads(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  static std::unique_ptr<storage::Database> db =
      storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.05), 1);
  parallel::SetThreadCountForTesting(threads);
  workload::WorkloadOptions opts;
  opts.max_joins = 2;
  workload::WorkloadGenerator gen(db.get(), opts);
  for (auto _ : state) {
    Rng rng(9);
    auto queries = gen.GenerateLabeled(40, &rng);
    benchmark::DoNotOptimize(queries.data());
  }
  state.SetItemsProcessed(state.iterations() * 40);
  parallel::SetThreadCountForTesting(0);
}
BENCHMARK(BM_LabelingThreads)->Arg(1)->Arg(2)->Arg(4);

struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<exec::Executor> executor;
  std::vector<query::LabeledQuery> queries;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      fx->db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.1),
                                          1);
      fx->executor = std::make_unique<exec::Executor>(fx->db.get());
      workload::WorkloadOptions opts;
      opts.max_joins = 3;
      workload::WorkloadGenerator gen(fx->db.get(), opts);
      Rng rng(2);
      fx->queries = gen.GenerateLabeled(50, &rng);
      return fx;
    }();
    return *f;
  }
};

void BM_FilterScan(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  const query::Query& q = fx.queries[0].q;
  int table = q.tables[0];
  for (auto _ : state) {
    auto bitmap = exec::FilterBitmap(*fx.db, q, table);
    benchmark::DoNotOptimize(bitmap.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.db->table(table).num_rows()));
}
BENCHMARK(BM_FilterScan);

// The same multi-predicate single-table count through both oracle paths.
// Arg: 0 = naive full-column bitmap + popcount, 1 = sorted-index candidate
// scan. Both return the identical integer.
void BM_FilterCount(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  bool indexed = state.range(0) != 0;
  // Correlated predicates on title: season_nr narrow, episode_nr wide.
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 3}, 0, 4}, {{0, 4}, 0, 60}, {{0, 2}, 0, 90}};
  exec::OracleIndex accel(fx.db.get());
  accel.CountFiltered(q, 0);  // warm-up: index build outside the timed loop
  for (auto _ : state) {
    uint64_t n = indexed
                     ? accel.CountFiltered(q, 0)
                     : exec::CountSet(exec::FilterBitmap(*fx.db, q, 0));
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.db->table(0).num_rows()));
}
BENCHMARK(BM_FilterCount)->Arg(0)->Arg(1);

// Single-predicate count: two binary searches on the sorted column index
// versus a full column scan.
void BM_IndexedRangeCount(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  bool indexed = state.range(0) != 0;
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 2}, 10, 55}};
  exec::OracleIndex accel(fx.db.get());
  accel.CountFiltered(q, 0);
  for (auto _ : state) {
    uint64_t n = indexed
                     ? accel.CountFiltered(q, 0)
                     : exec::CountSet(exec::FilterBitmap(*fx.db, q, 0));
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_IndexedRangeCount)->Arg(0)->Arg(1);

// Full TreeCount message pass over a 4-table star join, hash-map messages
// (Arg 0) versus dense join-key-id vectors (Arg 1).
void BM_JoinMessagePass(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  exec::SetOracleIndexEnabledForTesting(state.range(0) != 0 ? 1 : 0);
  query::Query q;
  q.tables = {0, 1, 2, 3};
  q.join_edges = {0, 1, 2};
  q.predicates = {{{0, 1}, 0, 2}, {{1, 2}, 0, 1}};
  fx.executor->Cardinality(q);  // warm-up: index build / column touch
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.executor->Cardinality(q));
  }
  exec::SetOracleIndexEnabledForTesting(-1);
}
BENCHMARK(BM_JoinMessagePass)->Arg(0)->Arg(1);

void BM_ExactJoinCount(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const query::Query& q = fx.queries[i++ % fx.queries.size()].q;
    benchmark::DoNotOptimize(fx.executor->Cardinality(q));
  }
}
BENCHMARK(BM_ExactJoinCount);

void BM_HashIndexProbe(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  exec::HashIndex index;
  const storage::Table& mc = *fx.db->FindTable("movie_companies").value();
  index.Build(mc, 0);
  Rng rng(3);
  int64_t max_key =
      static_cast<int64_t>(fx.db->FindTable("title").value()->num_rows()) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup(rng.UniformInt(0, max_key)));
  }
}
BENCHMARK(BM_HashIndexProbe);

void BM_EstimatorInference(benchmark::State& state,
                           const std::string& name) {
  Fixture& fx = Fixture::Get();
  static std::map<std::string, std::unique_ptr<ce::Estimator>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    ce::NeuralOptions neural;
    neural.epochs = 8;
    auto est = ce::MakeEstimator(name, neural);
    LCE_CHECK_OK(est->Build(*fx.db, fx.queries));
    it = cache.emplace(name, std::move(est)).first;
  }
  size_t i = 0;
  for (auto _ : state) {
    const query::Query& q = fx.queries[i++ % fx.queries.size()].q;
    benchmark::DoNotOptimize(it->second->EstimateCardinality(q));
  }
}
BENCHMARK_CAPTURE(BM_EstimatorInference, histogram, std::string("Histogram"));
BENCHMARK_CAPTURE(BM_EstimatorInference, fcn, std::string("FCN"));
BENCHMARK_CAPTURE(BM_EstimatorInference, mscn, std::string("MSCN"));
BENCHMARK_CAPTURE(BM_EstimatorInference, lwxgb, std::string("LW-XGB"));
BENCHMARK_CAPTURE(BM_EstimatorInference, spn, std::string("DeepDB-SPN"));

// One timed sample of a parallel workload at a given pool size.
double TimeSeconds(int threads, const std::function<void()>& body) {
  parallel::SetThreadCountForTesting(threads);
  body();  // warm-up: pool spin-up, allocator, column-sort caches
  auto start = std::chrono::steady_clock::now();
  body();
  auto end = std::chrono::steady_clock::now();
  parallel::SetThreadCountForTesting(0);
  return std::chrono::duration<double>(end - start).count();
}

struct SweepResult {
  std::string kernel;
  int threads;
  double seconds;
};

// Sweeps the two headline parallel paths (dense MatMul, ground-truth workload
// labeling) over pool sizes and writes BENCH_parallel.json.
void WriteParallelSweepJson(const std::string& path) {
  std::vector<int> thread_counts = {1, 2, 4};
  std::vector<SweepResult> results;

  {
    Rng rng(1);
    nn::Matrix a = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    nn::Matrix b = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    for (int t : thread_counts) {
      double s = TimeSeconds(t, [&] {
        for (int rep = 0; rep < 8; ++rep) {
          nn::Matrix c = nn::MatMul(a, b);
          benchmark::DoNotOptimize(c.raw());
        }
      });
      results.push_back({"matmul_384", t, s});
    }
  }

  {
    auto db = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.05), 1);
    workload::WorkloadOptions opts;
    opts.max_joins = 2;
    workload::WorkloadGenerator gen(db.get(), opts);
    for (int t : thread_counts) {
      double s = TimeSeconds(t, [&] {
        Rng rng(9);
        auto queries = gen.GenerateLabeled(60, &rng);
        benchmark::DoNotOptimize(queries.data());
      });
      results.push_back({"workload_labeling_60q", t, s});
    }
  }

  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("hardware_threads")
      .Value(uint64_t{std::thread::hardware_concurrency()});
  w.Key("results").BeginArray();
  for (const SweepResult& r : results) {
    double base = r.seconds;
    for (const SweepResult& other : results) {
      if (other.kernel == r.kernel && other.threads == 1) base = other.seconds;
    }
    w.BeginObject()
        .Key("kernel").Value(r.kernel)
        .Key("threads").Value(r.threads)
        .Key("seconds").Value(r.seconds)
        .Key("speedup_vs_1").Value(r.seconds > 0 ? base / r.seconds : 0.0)
        .EndObject();
  }
  w.EndArray().EndObject();

  out.push_back('\n');
  lce::Status written = lce::fs::WriteStringToFile(path, out);
  if (!written.ok()) {
    LCE_LOG(ERROR) << "cannot write parallel sweep: " << written.ToString();
    return;
  }
  LCE_LOG(INFO) << "wrote " << path;
}

// ---------------------------------------------------------------------------
// Kernel GFLOP/s + checksum report: every dense kernel and the batched GBDT
// traversal, timed on the naive reference path and the vectorized path,
// single-threaded (plus a matmul thread sweep). Results go three places:
// BENCH_kernels.json (human/script inspection), kernel.* telemetry gauges
// (into the run manifest, so tools/bench_diff can gate `inv_gflops` — the
// higher-is-worse inverse of throughput — and `checksum_drift`, which must
// stay 0 while the default build is bit-identical to the reference), and the
// log.
// ---------------------------------------------------------------------------

// Order-independent-enough checksum over logical elements; the two kernel
// paths are bit-identical, so the drift of this sum must be exactly 0.
double LogicalChecksum(const nn::Matrix& m) {
  double s = 0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) s += m.At(r, c);
  }
  return s;
}

// Min-of-reps seconds for one call of `body` (body runs inner times per rep).
double TimeOpSeconds(int inner, const std::function<void()>& body) {
  body();  // warm-up
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) body();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(t1 - t0).count() / inner);
  }
  return best;
}

struct KernelSample {
  std::string name;
  double flops_per_op;        // 0 when the op is row-oriented (gbdt)
  double rows_per_op;         // 0 when the op is flop-oriented
  double naive_seconds;
  double simd_seconds;
  double checksum_drift;      // |simd checksum - naive checksum|, expect 0
};

// Times `op` (which must return a checksum) on both kernel paths.
KernelSample SampleKernel(const std::string& name, double flops_per_op,
                          double rows_per_op, int inner,
                          const std::function<double()>& op) {
  KernelSample s;
  s.name = name;
  s.flops_per_op = flops_per_op;
  s.rows_per_op = rows_per_op;
  simd::SetSimdEnabledForTesting(0);
  double naive_checksum = op();
  s.naive_seconds = TimeOpSeconds(inner, [&] { op(); });
  simd::SetSimdEnabledForTesting(1);
  double simd_checksum = op();
  s.simd_seconds = TimeOpSeconds(inner, [&] { op(); });
  simd::SetSimdEnabledForTesting(-1);
  s.checksum_drift = std::abs(simd_checksum - naive_checksum);
  return s;
}

void WriteKernelReportJson(const std::string& path) {
  using telemetry::MetricsRegistry;
  std::vector<KernelSample> samples;
  parallel::SetThreadCountForTesting(1);  // per-kernel numbers: one thread

  {
    Rng rng(1);
    nn::Matrix a = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    nn::Matrix b = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    double flops = 2.0 * 384 * 384 * 384;
    samples.push_back(SampleKernel("matmul_384", flops, 0, 2, [&] {
      return LogicalChecksum(nn::MatMul(a, b));
    }));
    samples.push_back(SampleKernel("matmul_transa_384", flops, 0, 2, [&] {
      return LogicalChecksum(nn::MatMulTransA(a, b));
    }));
    samples.push_back(SampleKernel("matmul_transb_384", flops, 0, 2, [&] {
      return LogicalChecksum(nn::MatMulTransB(a, b));
    }));
    nn::Matrix bias = nn::Matrix::Randn(1, 384, 1.0f, &rng);
    samples.push_back(SampleKernel("matmul_fused_relu_384", flops, 0, 2, [&] {
      return LogicalChecksum(
          nn::MatMulBiasAct(a, b, bias, nn::Activation::kRelu));
    }));
    // The per-query inference shape: one row against a dense layer.
    nn::Matrix x = nn::Matrix::Randn(1, 384, 1.0f, &rng);
    samples.push_back(
        SampleKernel("gemv_1x384", 2.0 * 384 * 384, 0, 200, [&] {
          return LogicalChecksum(nn::MatMul(x, b));
        }));
    // Small-M A*B^T (the backward dx shape that uses the dot kernel).
    nn::Matrix dy = nn::Matrix::Randn(4, 384, 1.0f, &rng);
    samples.push_back(
        SampleKernel("transb_dot_4x384", 2.0 * 4 * 384 * 384, 0, 50, [&] {
          return LogicalChecksum(nn::MatMulTransB(dy, b));
        }));
  }

  {
    Rng rng(11);
    std::vector<std::vector<float>> train_rows;
    std::vector<float> targets;
    for (int i = 0; i < 4000; ++i) {
      float a = static_cast<float>(rng.Uniform());
      float b = static_cast<float>(rng.Uniform(-2, 2));
      float c = static_cast<float>(rng.Gaussian());
      float d = static_cast<float>(rng.Uniform(0, 10));
      train_rows.push_back({a, b, c, d});
      targets.push_back(std::sin(5 * a) + 0.3f * b * c + 0.05f * d);
    }
    gbdt::GradientBoosting model;
    model.Fit(train_rows, targets);
    std::vector<std::vector<float>> rows(train_rows.begin(),
                                         train_rows.begin() + 2048);
    samples.push_back(SampleKernel("gbdt_batch_2048", 0, 2048, 5, [&] {
      std::vector<float> preds = model.PredictBatch(rows);
      double s = 0;
      for (float p : preds) s += p;
      return s;
    }));
  }

  // Thread sweep on the vectorized matmul: the ISSUE's ~0.95x -> >=2x
  // criterion. Honest on any machine — hardware_threads is recorded next to
  // it, so a 1-core container reporting ~1x is interpretable.
  double sweep_1t = 0, sweep_4t = 0;
  {
    Rng rng(1);
    nn::Matrix a = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    nn::Matrix b = nn::Matrix::Randn(384, 384, 1.0f, &rng);
    simd::SetSimdEnabledForTesting(1);
    auto op = [&] { benchmark::DoNotOptimize(nn::MatMul(a, b).raw()); };
    parallel::SetThreadCountForTesting(1);
    sweep_1t = TimeOpSeconds(2, op);
    parallel::SetThreadCountForTesting(4);
    sweep_4t = TimeOpSeconds(2, op);
    simd::SetSimdEnabledForTesting(-1);
  }
  parallel::SetThreadCountForTesting(0);
  double thread4_speedup = sweep_4t > 0 ? sweep_1t / sweep_4t : 0.0;

  auto& registry = MetricsRegistry::Global();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("hardware_threads")
      .Value(uint64_t{std::thread::hardware_concurrency()});
  w.Key("kernels").BeginArray();
  for (const KernelSample& s : samples) {
    double naive_thru = 0, simd_thru = 0;
    const char* unit = "";
    if (s.flops_per_op > 0) {
      naive_thru = s.flops_per_op / s.naive_seconds / 1e9;
      simd_thru = s.flops_per_op / s.simd_seconds / 1e9;
      unit = "gflops";
    } else {
      naive_thru = s.rows_per_op / s.naive_seconds / 1e6;
      simd_thru = s.rows_per_op / s.simd_seconds / 1e6;
      unit = "mrows_per_sec";
    }
    double speedup = s.naive_seconds / s.simd_seconds;
    w.BeginObject()
        .Key("kernel").Value(s.name)
        .Key("unit").Value(unit)
        .Key("naive").Value(naive_thru)
        .Key("simd").Value(simd_thru)
        .Key("speedup_vs_naive").Value(speedup)
        .Key("checksum_drift").Value(s.checksum_drift)
        .EndObject();
    // Gauges for the manifest: inverse throughput is the gated key (higher
    // = worse, matching bench_diff's direction), drift must stay at 0.
    std::string prefix = "kernel." + s.name + ".";
    registry.gauge(prefix + "inv_" + unit).Set(1.0 / simd_thru);
    registry.gauge(prefix + unit).Set(simd_thru);
    registry.gauge(prefix + "naive_" + unit).Set(naive_thru);
    registry.gauge(prefix + "speedup_vs_naive").Set(speedup);
    registry.gauge(prefix + "checksum_drift").Set(s.checksum_drift);
    LCE_LOG(INFO) << "kernel " << s.name << ": naive " << naive_thru << " "
                  << unit << ", simd " << simd_thru << " (" << speedup
                  << "x), checksum drift " << s.checksum_drift;
  }
  w.EndArray();
  w.Key("matmul_384_threads4_speedup").Value(thread4_speedup);
  w.EndObject();
  registry.gauge("kernel.matmul_384.threads4_speedup").Set(thread4_speedup);
  registry.gauge("kernel.matmul_384.threads4_inv_speedup")
      .Set(thread4_speedup > 0 ? 1.0 / thread4_speedup : 0.0);

  out.push_back('\n');
  lce::Status written = lce::fs::WriteStringToFile(path, out);
  if (!written.ok()) {
    LCE_LOG(ERROR) << "cannot write kernel report: " << written.ToString();
    return;
  }
  LCE_LOG(INFO) << "wrote " << path;
}

}  // namespace

int main(int argc, char** argv) {
  lce::Timer wall;
  // Naming the thread registers the trace buffers, whose exit hook writes
  // LCE_TRACE and LCE_PROFILE, as BenchRun does for the experiment benches.
  lce::telemetry::SetCurrentThreadName("main");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteParallelSweepJson(lce::bench::BenchOutPath("BENCH_parallel.json"));
  WriteKernelReportJson(lce::bench::BenchOutPath("BENCH_kernels.json"));
  lce::telemetry::WriteRunManifest(
      lce::bench::BenchOutPath("BENCH_manifest_micro_kernels.json"),
      "micro_kernels", wall.ElapsedSeconds());
  return 0;
}
