// R7 — Accuracy vs training-set size for the query-driven models.

#include "bench/bench_common.h"

int main() {
  using namespace lce;
  using namespace lce::bench;
  BenchRun bench_run("r7_trainsize");

  PrintHeader("R7", "q-error vs number of training queries (DMV-like)",
              "accuracy improves steeply up to ~1-2k queries then plateaus; "
              "tree ensembles need fewer queries than deep models");

  BenchConfig cfg = BenchConfig::FromEnv();
  // The labeled superset; prefixes form the sweep. LCE_BENCH_TRAIN_QUERIES
  // (when set) scales the whole sweep down, so CI can run a small config.
  if (!knobs::EnvSet(knobs::kBenchTrainQueries)) cfg.train_queries = 4000;
  if (!knobs::EnvSet(knobs::kBenchTestQueries)) cfg.test_queries = 250;
  BenchDb bench = MakeBenchDb(storage::datagen::DmvLikeSpec(cfg.dmv_scale),
                              cfg);
  ce::NeuralOptions neural = BenchNeuralOptions();

  // Sweep sizes are fixed fractions of the superset (N/16 .. N), so the
  // qualitative shape survives env resizing.
  std::vector<int> sizes;
  for (int divisor : {16, 8, 4, 2, 1}) {
    int n = cfg.train_queries / divisor;
    if (n >= 1 && (sizes.empty() || n > sizes.back())) sizes.push_back(n);
  }
  const std::vector<std::string> models = {"Linear", "FCN", "MSCN", "LSTM",
                                           "LW-XGB"};
  std::vector<std::string> header = {"estimator"};
  for (int n : sizes) header.push_back("n=" + std::to_string(n));
  TablePrinter table(header);
  for (const std::string& name : models) {
    std::vector<std::string> row = {name};
    for (int n : sizes) {
      std::vector<query::LabeledQuery> subset(bench.train.begin(),
                                              bench.train.begin() + n);
      auto est = ce::MakeEstimator(name, neural);
      if (!est->Build(*bench.db, subset).ok()) {
        row.push_back("-");
        continue;
      }
      auto report = eval::EvaluateAccuracy(est.get(), bench.test);
      row.push_back(TablePrinter::Num(report.summary.geo_mean));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
