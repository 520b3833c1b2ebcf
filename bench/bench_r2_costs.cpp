// R2 — Cost profile: build (training) time, mean inference latency, and
// estimator footprint, on one single-table and one multi-table database.

#include "bench/bench_common.h"

int main() {
  using namespace lce;
  using namespace lce::bench;
  BenchRun bench_run("r2_costs");

  PrintHeader("R2", "build time / inference latency / model size",
              "traditional estimators build orders of magnitude faster and "
              "are smaller; recurrent models have the slowest inference; "
              "sampling trades size for accuracy");

  BenchConfig cfg = BenchConfig::FromEnv();
  ce::NeuralOptions neural = BenchNeuralOptions();
  std::vector<BenchDb> dbs;
  dbs.push_back(MakeBenchDb(storage::datagen::DmvLikeSpec(cfg.dmv_scale), cfg));
  dbs.push_back(MakeBenchDb(storage::datagen::ImdbLikeSpec(cfg.scale), cfg));

  for (BenchDb& bench : dbs) {
    std::printf("\n-- database: %s --\n", bench.name.c_str());
    TablePrinter table({"estimator", "build_s", "infer_us", "infer_p50_us",
                        "infer_p95_us", "size_KiB", "geo-mean q-err"});
    size_t measured = 0, total = 0;
    bool capped = false;
    for (const std::string& name : ce::AllEstimatorNames()) {
      EstimatorRun run = RunEstimator(name, bench, neural);
      if (!run.ok) continue;
      measured = run.latency.measured;
      total = run.latency.total;
      capped = capped || run.latency.capped;
      table.AddRow({name, TablePrinter::Fixed(run.build_seconds, 3),
                    TablePrinter::Fixed(run.latency.micros.mean, 1),
                    TablePrinter::Fixed(run.latency.micros.p50, 1),
                    TablePrinter::Fixed(run.latency.micros.p95, 1),
                    TablePrinter::Fixed(
                        static_cast<double>(run.size_bytes) / 1024.0, 1),
                    TablePrinter::Num(run.accuracy.summary.geo_mean)});
    }
    table.Print();
    if (capped) {
      std::printf("latency measured on the first %zu of %zu test queries\n",
                  measured, total);
    }
  }
  return 0;
}
