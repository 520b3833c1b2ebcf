// Shared setup for the experiment benchmarks (R1..R14).
//
// Each bench binary regenerates one table/figure of the reconstructed study
// (see DESIGN.md §2). Sizes are tuned so the full suite runs in minutes on a
// laptop while preserving the qualitative shapes the study reports.

#ifndef LCE_BENCH_BENCH_COMMON_H_
#define LCE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/factory.h"
#include "src/eval/metrics.h"
#include "src/exec/executor.h"
#include "src/storage/datagen.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/table_printer.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/model_card.h"
#include "src/util/telemetry/run_manifest.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/timer.h"
#include "src/workload/generator.h"

namespace lce {
namespace bench {

/// Directory for bench artifacts (manifests, JSON outputs), relative to the
/// working directory. Override with LCE_BENCH_OUT_DIR; writers create it on
/// demand, so a fresh checkout needs no setup.
inline std::string BenchOutDir() {
  return knobs::String(knobs::kBenchOutDir);
}

/// `BenchOutDir()/name` — the canonical path for one bench artifact.
inline std::string BenchOutPath(const std::string& name) {
  return BenchOutDir() + "/" + name;
}

/// A database with labeled train/test workloads, ready for estimators.
struct BenchDb {
  std::string name;
  storage::datagen::DatabaseGenSpec spec;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<exec::Executor> executor;
  std::vector<query::LabeledQuery> train;
  std::vector<query::LabeledQuery> test;
};

/// Bench sizes; the defaults are the LCE_BENCH_* knobs' defaults.
struct BenchConfig {
  double scale = Default(knobs::kBenchScale);  // multi-table schemas
  double dmv_scale = Default(knobs::kBenchDmvScale);  // single table: cheap
  int train_queries = static_cast<int>(Default(knobs::kBenchTrainQueries));
  int test_queries = static_cast<int>(Default(knobs::kBenchTestQueries));
  int max_joins = static_cast<int>(Default(knobs::kBenchMaxJoins));
  uint64_t seed = static_cast<uint64_t>(Default(knobs::kBenchSeed));

  /// The sizes LCE_BENCH_{SCALE,DMV_SCALE,TRAIN_QUERIES,TEST_QUERIES,
  /// MAX_JOINS,SEED} set: CI runs the suite at a fraction of the default
  /// size without a rebuild.
  static BenchConfig FromEnv() {
    BenchConfig cfg;
    cfg.scale = knobs::Number(knobs::kBenchScale);
    cfg.dmv_scale = knobs::Number(knobs::kBenchDmvScale);
    cfg.train_queries = static_cast<int>(knobs::Int(knobs::kBenchTrainQueries));
    cfg.test_queries = static_cast<int>(knobs::Int(knobs::kBenchTestQueries));
    cfg.max_joins = static_cast<int>(knobs::Int(knobs::kBenchMaxJoins));
    cfg.seed = static_cast<uint64_t>(knobs::Int(knobs::kBenchSeed));
    return cfg;
  }

 private:
  static double Default(knobs::Id id) { return knobs::GetSpec(id).def; }
};

inline BenchDb MakeBenchDb(const storage::datagen::DatabaseGenSpec& spec,
                           const BenchConfig& cfg) {
  BenchDb out;
  out.name = spec.name;
  out.spec = spec;
  out.db = storage::datagen::Generate(spec, cfg.seed);
  out.executor = std::make_unique<exec::Executor>(out.db.get());
  // This is the ground-truth oracle the benches replay plans against; its
  // calls go to the flight recorder and the query log (LCE_QUERY_LOG). The
  // generator's bulk labeler and the sampling estimator's internal executor
  // stay un-logged.
  out.executor->EnableQueryLog();
  workload::WorkloadOptions wopts;
  wopts.max_joins = out.db->num_tables() > 1 ? cfg.max_joins : 0;
  workload::WorkloadGenerator gen(out.db.get(), wopts);
  Rng rng(cfg.seed * 977 + 13);
  Timer label_timer;
  telemetry::TraceSpan span("label/" + out.name);
  out.train = gen.GenerateLabeled(cfg.train_queries, &rng);
  out.test = gen.GenerateLabeled(cfg.test_queries, &rng);
  LCE_LOG(INFO) << out.name << ": labeled "
                << cfg.train_queries + cfg.test_queries << " queries in "
                << label_timer.ElapsedSeconds() << "s ("
                << parallel::ThreadCount() << " threads)";
  return out;
}

/// The four study databases at bench scale.
inline std::vector<BenchDb> MakeStudyDbs(const BenchConfig& cfg) {
  std::vector<BenchDb> dbs;
  dbs.push_back(MakeBenchDb(storage::datagen::DmvLikeSpec(cfg.dmv_scale), cfg));
  dbs.push_back(MakeBenchDb(storage::datagen::ImdbLikeSpec(cfg.scale), cfg));
  dbs.push_back(MakeBenchDb(storage::datagen::TpchLikeSpec(cfg.scale), cfg));
  dbs.push_back(MakeBenchDb(storage::datagen::StatsLikeSpec(cfg.scale), cfg));
  return dbs;
}

/// Neural settings shared by the benches: sized for minutes-long runs.
inline ce::NeuralOptions BenchNeuralOptions() {
  ce::NeuralOptions o;
  o.hidden_dim = 48;
  o.epochs = 20;
  return o;
}

/// Builds (timing it) and evaluates one estimator.
struct EstimatorRun {
  std::string name;
  double build_seconds = 0;
  uint64_t size_bytes = 0;
  eval::AccuracyReport accuracy;
  eval::LatencyReport latency;
  bool ok = false;
};

inline EstimatorRun RunEstimator(const std::string& name, const BenchDb& bench,
                                 const ce::NeuralOptions& neural,
                                 uint64_t seed = 42) {
  EstimatorRun run;
  run.name = name;
  // Scope the phase counters and the build span to this estimator, so the
  // manifest reads "FCN:nn/epoch" rather than a cross-estimator pot.
  telemetry::PhaseScope phase_scope(name);
  auto est = ce::MakeEstimator(name, neural, seed);
  Timer timer;
  Status s;
  {
    telemetry::TraceSpan span("build/" + name + "@" + bench.name);
    s = est->Build(*bench.db, bench.train);
  }
  run.build_seconds = timer.ElapsedSeconds();
  if (!s.ok()) {
    LCE_LOG(ERROR) << "build of " << name << " on " << bench.name
                   << " failed: " << s.ToString();
    return run;
  }
  telemetry::TraceSpan eval_span("eval/" + name + "@" + bench.name);
  run.accuracy = eval::EvaluateAccuracy(est.get(), bench.test);
  run.latency = eval::MeasureEstimateLatency(est.get(), bench.test);
  run.size_bytes = est->SizeBytes();
  run.ok = true;
  // Model card: the estimator fills what it tracks (family, parameters,
  // epochs, losses); the harness owns the run-level context.
  {
    telemetry::ModelCard card;
    est->DescribeModel(&card);
    card.dataset = bench.name;
    card.build_seconds = run.build_seconds;
    card.extra.emplace_back("qerr_p50", run.accuracy.summary.p50);
    card.extra.emplace_back("qerr_p95", run.accuracy.summary.p95);
    telemetry::ModelCardRegistry::Global().Add(std::move(card));
  }
  return run;
}

/// RAII per-binary harness: times the whole run and, on destruction, writes
/// BenchOutDir()/BENCH_manifest_<name>.json. The trace, profile, query log
/// and training log are written by their own exit hooks.
class BenchRun {
 public:
  explicit BenchRun(std::string name) : name_(std::move(name)) {
    telemetry::SetCurrentThreadName("main");
    LCE_LOG(INFO) << "bench " << name_ << " starting (commit "
                  << telemetry::BuildGitCommit() << ", "
                  << parallel::ThreadCount() << " threads)";
  }
  ~BenchRun() {
    telemetry::WriteRunManifest(
        BenchOutPath("BENCH_manifest_" + name_ + ".json"), name_,
        timer_.ElapsedSeconds());
  }
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

 private:
  std::string name_;
  Timer timer_;
};

inline void PrintHeader(const std::string& experiment,
                        const std::string& what,
                        const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("expected shape: %s\n", expectation.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace lce

#endif  // LCE_BENCH_BENCH_COMMON_H_
