// Prints bit-level digests of what training produces for each query-driven
// neural estimator, so a change to the training or inference code can be
// checked against its parent commit bit for bit:
//
//   nn_train_digest
//
// It takes no arguments. Data, workloads, model seeds and network size are
// those of the benchmark's train-eval workload (lcebench/main.cpp): IMDb-like
// database at scale 0.12, 1500 training and 1000 test queries with up to 3
// joins, hidden 48, 20 epochs. Per family it prints FNV-1a digests of the
// per-epoch losses and of the EstimateBatch answers over the test queries,
// after Build and again after one UpdateWithQueries round on the test
// queries, and checks that per-query EstimateCardinality answers equal the
// batch answers. Equal digests on two commits mean equal bits.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/ce/factory.h"
#include "src/ce/query_driven/neural_base.h"
#include "src/storage/datagen.h"
#include "src/workload/generator.h"

namespace {

uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct Digest {
  uint64_t losses = 0;
  uint64_t answers = 0;
  int loop_mismatches = 0;
};

Digest Take(lce::ce::NeuralQueryDrivenEstimator* est,
            const std::vector<lce::query::Query>& test) {
  Digest d;
  d.losses = Fnv1a(est->epoch_losses());
  std::vector<double> answers = est->EstimateBatch(test);
  d.answers = Fnv1a(answers);
  for (size_t i = 0; i < test.size(); ++i) {
    if (est->EstimateCardinality(test[i]) != answers[i]) ++d.loop_mismatches;
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  constexpr double kScale = 0.12;
  constexpr int kTrainQueries = 1500;
  constexpr int kTestQueries = 1000;
  constexpr int kEpochs = 20;

  auto db = lce::storage::datagen::Generate(
      lce::storage::datagen::ImdbLikeSpec(kScale), 7);
  lce::workload::WorkloadOptions wopts;
  wopts.max_joins = 3;
  lce::workload::WorkloadGenerator gen(db.get(), wopts);
  lce::Rng train_rng(7 * 977 + 13);
  std::vector<lce::query::LabeledQuery> train =
      gen.GenerateLabeled(kTrainQueries, &train_rng);
  lce::Rng test_rng(7 * 977 + 14);
  std::vector<lce::query::LabeledQuery> labeled_test =
      gen.GenerateLabeled(kTestQueries, &test_rng);
  std::vector<lce::query::Query> test;
  for (const auto& lq : labeled_test) test.push_back(lq.q);

  lce::ce::NeuralOptions options;
  options.hidden_dim = 48;
  options.epochs = kEpochs;
  int failures = 0;
  for (const std::string& name : lce::ce::QueryDrivenNeuralNames()) {
    std::unique_ptr<lce::ce::Estimator> base =
        lce::ce::MakeEstimator(name, options, 42);
    auto* est = dynamic_cast<lce::ce::NeuralQueryDrivenEstimator*>(base.get());
    if (est == nullptr) {
      std::fprintf(stderr, "%s is not a neural estimator\n", name.c_str());
      return 1;
    }
    auto t0 = std::chrono::steady_clock::now();
    lce::Status st = est->Build(*db, train);
    double build_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (!st.ok()) {
      std::fprintf(stderr, "%s: build failed: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    Digest built = Take(est, test);
    st = est->UpdateWithQueries(labeled_test);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: update failed: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    Digest updated = Take(est, test);
    failures += built.loop_mismatches + updated.loop_mismatches;
    std::printf(
        "%-9s build losses %016llx answers %016llx | update losses %016llx "
        "answers %016llx | loop!=batch %d | build %.3f s\n",
        name.c_str(), static_cast<unsigned long long>(built.losses),
        static_cast<unsigned long long>(built.answers),
        static_cast<unsigned long long>(updated.losses),
        static_cast<unsigned long long>(updated.answers),
        built.loop_mismatches + updated.loop_mismatches, build_s);
  }
  return failures == 0 ? 0 : 1;
}
