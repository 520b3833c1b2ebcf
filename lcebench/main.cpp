// lcebench — the repository benchmark. It drives the two end-to-end paths of
// the library through public entry points only and checks every answer:
//
//   serve-mscn        4 closed-loop clients send SQL to serve::EstimationService
//                     answered by a serving-size MSCN (nn forward + batcher).
//   serve-lwxgb-swap  the same stream against LW-XGB while client 0 re-registers
//                     one of two builds every kSwapEvery requests (parse,
//                     routing and batcher handoff dominate; registry writes
//                     run beside reads).
//   train-eval        label a workload, build seven estimators, and score each
//                     with eval::EvaluateAccuracy (nn training, gbdt, labeling).
//
// Usage: lcebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
// run that times the calls into each layer from outside the library and
// prints the per-layer metrics (see lcebench/README.md). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lcebench/spans.h"
#include "lcebench/timing_estimator.h"
#include "src/ce/factory.h"
#include "src/eval/metrics.h"
#include "src/query/parser.h"
#include "src/serve/service.h"
#include "src/storage/column_index.h"
#include "src/storage/datagen.h"
#include "src/util/json_writer.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/telemetry/event_ring.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace lcebench {
namespace {

using lce::Result;
using lce::Status;
using lce::ce::Estimator;
using lce::query::LabeledQuery;
using lce::query::Query;
using lce::storage::Database;

// Bench scale: the sizes of bench/bench_common.h's BenchConfig defaults.
constexpr double kScale = 0.12;
constexpr int kTrainQueries = 1500;
constexpr int kTestQueries = 1000;
constexpr int kMaxJoins = 3;

constexpr int kMaxClients = 4;
// setup_s is the median of several set-ups per run: at least kMinSetups,
// more while they fit in kSetupBudgetSeconds, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 2.0;
constexpr int kSwapEvery = 256;      // client 0's requests between swaps
constexpr double kWarmupSeconds = 0.5;
constexpr double kWindowSeconds = 0.5;  // serve metrics: per-window samples
// The benchmark shares its host with other tenants, whose load slows it by
// 20-40% for seconds at a time. In eight train-eval runs on a shared 4-vCPU
// host the interquartile range of the runs' medians was 20-29% of their
// value, that of their fastest deciles 3-7%. So timings are reported at the
// fast decile of their samples: the speed the code reaches while the host
// leaves it alone. setup_s stays a median.
constexpr double kFastQuantile = 0.1;
constexpr size_t kTraceFileRequests = 2000;
const char* const kTraceDir = "lcebench-out";

// Deterministic models only: Naru and WanderJoin answer from a member Rng,
// so their answers depend on call history.
const std::vector<std::string> kTrainEvalModels = {
    "Histogram", "LW-XGB", "FCN", "MSCN", "LSTM", "DeepDB-SPN", "BayesNet"};
const std::vector<std::string> kNnModels = {"FCN", "MSCN", "LSTM"};

const std::vector<std::string> kWorkloads = {"serve-mscn", "serve-lwxgb-swap",
                                             "train-eval"};

/// bench_common.h's BenchNeuralOptions: the accuracy benches' network size.
lce::ce::NeuralOptions TrainEvalNeuralOptions() {
  lce::ce::NeuralOptions o;
  o.hidden_dim = 48;
  o.epochs = 20;
  return o;
}

/// A serving-size MSCN: 256x256 float weights per layer (256 KiB) overflow L1,
/// so a 1-row forward streams them and batching pays off, while one epoch
/// keeps the build, and so setup_s, near a second. Weights that overflow a
/// 2 MiB L2 would need hidden >= 724, whose build takes tens of seconds.
lce::ce::NeuralOptions ServingNeuralOptions() {
  lce::ce::NeuralOptions o;
  o.hidden_dim = 256;
  o.num_hidden_layers = 3;
  o.epochs = 1;
  return o;
}

// Everything that determines an answer is a fixed input, like the study's
// datasets: the databases, the labeled train and test workloads, and the
// model seeds. Drawn from --seed, they moved the q-error quantiles by 15-50%
// between seeds (the p95 of a heavy-tailed q-error sample shifts with every
// new test set or model initialisation), more than any accuracy bound could
// absorb. So q-errors are a function of the code alone, and --seed draws
// the order in which the test queries are scored and, rendered to SQL, sent
// as requests: the answers must not depend on it.
constexpr uint64_t kDataSeed = 7;
constexpr uint64_t kTrainSeed = 7 * 977 + 13;
constexpr uint64_t kTestSeed = 7 * 977 + 14;
uint64_t ModelSeed(int build) { return 42 + static_cast<uint64_t>(build); }

/// A permutation of [0, n) drawn from `seed`.
std::vector<size_t> SeedOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  lce::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(static_cast<uint32_t>(i))]);
  }
  return order;
}

// ---------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// What one run found: operation counts, invariant checks, and metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t out_of_bounds = 0;  // valid answers above the join upper bound
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
};

/// Durations of the set-up and build steps, by layer.
struct StepTimes {
  std::vector<double> generate_s, prebuild_s, label_s;
  std::map<std::string, std::vector<double>> build_s;
  std::map<std::string, std::vector<double>> eval_s;
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Last(const std::vector<double>& v) { return v.empty() ? 0.0 : v.back(); }

/// The fast decile of durations: the 10th percentile.
double FastTime(const std::vector<double>& v) {
  return QuantileOf(v, kFastQuantile).value;
}

/// The fast decile of rates: the 90th percentile.
double FastRate(const std::vector<double>& v) {
  return QuantileOf(v, 1 - kFastQuantile).value;
}

/// Whether to set up once more, given the set-up times so far. A traced run
/// sets up once.
bool MoreSetups(const std::vector<double>& done, bool trace) {
  if (trace) return done.empty();
  if (done.size() < kMinSetups) return true;
  double sum = 0;
  for (double s : done) sum += s;
  return sum < kSetupBudgetSeconds && done.size() < kMaxSetups;
}

/// Phase and exec counters the library records with LCE_METRICS=1.
std::map<std::string, uint64_t> LibraryCounters() {
  lce::telemetry::FlushEventRings();
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       lce::telemetry::MetricsRegistry::Global().CounterValues()) {
    out[name] = value;
  }
  return out;
}

uint64_t CounterOr0(const std::map<std::string, uint64_t>& c,
                    const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Mean ns per call of phase `<scope>:<name>`, or 0 when it never ran.
double PhaseMeanNs(const std::map<std::string, uint64_t>& c,
                   const std::string& key) {
  const uint64_t calls = CounterOr0(c, "phase." + key + ".calls");
  return calls == 0 ? 0.0
                    : static_cast<double>(CounterOr0(c, "phase." + key + ".ns")) /
                          static_cast<double>(calls);
}

uint64_t NnPhaseNs(const std::map<std::string, uint64_t>& c) {
  uint64_t ns = 0;
  for (const std::string& m : kNnModels) {
    ns += CounterOr0(c, "phase." + m + ":nn/epoch.ns");
  }
  return ns;
}

uint64_t GbdtPhaseNs(const std::map<std::string, uint64_t>& c) {
  return CounterOr0(c, "phase.LW-XGB:lwxgb/fit.ns");
}

/// Moves the nn and gbdt phase time the library measured inside ce.build
/// spans out of the ce layer into their own layers.
void SplitBuildPhases(const std::map<std::string, uint64_t>& c,
                      std::map<std::string, int64_t>* layers) {
  const auto nn = static_cast<int64_t>(NnPhaseNs(c));
  const auto gbdt = static_cast<int64_t>(GbdtPhaseNs(c));
  if (nn > 0) (*layers)["nn"] += nn;
  if (gbdt > 0) (*layers)["gbdt"] += gbdt;
  (*layers)["ce"] -= nn + gbdt;
}

/// Self time by layer or span name, divided by `per` (the request count, or
/// 1), with each row's share of `total_ns`.
void PrintLayerTable(const char* title,
                     const std::map<std::string, int64_t>& by_layer,
                     double total_ns, double per) {
  std::printf("%s: self time\n", title);
  for (const auto& [layer, ns] : by_layer) {
    std::printf("  %-18s %14.3f us  %6.1f%%\n", layer.c_str(),
                static_cast<double>(ns) * 1e-3 / per,
                total_ns > 0 ? 100.0 * static_cast<double>(ns) / total_ns : 0.0);
  }
}

/// Per-layer metrics every workload reports, filled from the step times and
/// the library counters (0 where the workload does not use the layer).
void AddCommonLayerMetrics(const StepTimes& t,
                           const std::map<std::string, uint64_t>& c,
                           Outcome* out) {
  const std::vector<double> none;
  auto times_of = [&none](const std::map<std::string, std::vector<double>>& by,
                          const std::string& model) -> const std::vector<double>& {
    auto it = by.find(model);
    return it == by.end() ? none : it->second;
  };
  for (const std::string& m : kTrainEvalModels) {
    const std::vector<double>& v = times_of(t.build_s, m);
    out->Add("ce.build_s." + m, Mean(v), "s", v.size());
  }
  for (const std::string& m : kNnModels) {
    const uint64_t calls = CounterOr0(c, "phase." + m + ":nn/epoch.calls");
    out->Add("nn.epoch_ms." + m, PhaseMeanNs(c, m + ":nn/epoch") * 1e-6, "ms",
             calls);
  }
  out->Add("nn.epochs", static_cast<double>(CounterOr0(c, "nn.epochs")),
           "count", 1);
  out->Add("gbdt.fit_ms", PhaseMeanNs(c, "LW-XGB:lwxgb/fit") * 1e-6, "ms",
           CounterOr0(c, "phase.LW-XGB:lwxgb/fit.calls"));
  out->Add("workload.label_s", Last(t.label_s), "s", t.label_s.size());
  out->Add("exec.rows_scanned",
           static_cast<double>(CounterOr0(c, "exec.rows_scanned")), "count", 1);
  out->Add("exec.index_probes",
           static_cast<double>(CounterOr0(c, "exec.index_probes")), "count", 1);
  const double hits = static_cast<double>(CounterOr0(c, "exec.bitmap_cache_hit"));
  const double misses =
      static_cast<double>(CounterOr0(c, "exec.bitmap_cache_miss"));
  out->Add("exec.bitmap_cache_hit_frac",
           hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac",
           static_cast<size_t>(hits + misses));
  for (const std::string& m : kTrainEvalModels) {
    const std::vector<double>& v = times_of(t.eval_s, m);
    out->Add("eval.accuracy_s." + m, Mean(v), "s", v.size());
  }
  out->Add("storage.generate_s", Last(t.generate_s), "s", t.generate_s.size());
  out->Add("storage.index_prebuild_s", Last(t.prebuild_s), "s",
           t.prebuild_s.size());
  out->Add("telemetry.dropped_events",
           static_cast<double>(lce::telemetry::DroppedEventCount()), "count", 1);
}

/// Turns library metric recording off for an untraced measurement inside a
/// traced run, so trace.overhead_frac compares against the end-to-end
/// configuration (LCE_METRICS unset).
class MetricsOff {
 public:
  MetricsOff() { lce::telemetry::SetMetricsEnabledForTesting(0); }
  ~MetricsOff() { lce::telemetry::SetMetricsEnabledForTesting(-1); }
  MetricsOff(const MetricsOff&) = delete;
  MetricsOff& operator=(const MetricsOff&) = delete;
};

// ------------------------------------------------------------- shared setup

/// Datagen plus an explicit index prebuild: the storage layer's set-up.
std::unique_ptr<Database> MakeDatabase(
    const lce::storage::datagen::DatabaseGenSpec& spec, SpanLog* log,
    uint64_t parent, StepTimes* times) {
  std::unique_ptr<Database> db;
  {
    ScopedSpan s(log, "storage.generate", parent);
    db = lce::storage::datagen::Generate(spec, kDataSeed);
    times->generate_s.push_back(s.End());
  }
  {
    ScopedSpan s(log, "storage.index_prebuild", parent);
    db->index().Prebuild(/*include_edges=*/true);
    times->prebuild_s.push_back(s.End());
  }
  return db;
}

/// Labels the train and test workloads with the exact oracle.
void Label(const Database& db, SpanLog* log, uint64_t parent,
           StepTimes* times, std::vector<LabeledQuery>* train,
           std::vector<LabeledQuery>* test) {
  ScopedSpan s(log, "workload.label", parent);
  lce::workload::WorkloadOptions opts;
  opts.max_joins = kMaxJoins;
  lce::workload::WorkloadGenerator gen(&db, opts);
  lce::Rng train_rng(kTrainSeed);
  *train = gen.GenerateLabeled(kTrainQueries, &train_rng);
  lce::Rng test_rng(kTestSeed);
  *test = gen.GenerateLabeled(kTestQueries, &test_rng);
  times->label_s.push_back(s.End());
}

/// Product of the queried tables' row counts: the largest true answer.
double JoinUpperBound(const Database& db, const Query& q) {
  double bound = 1;
  for (int t : q.tables) bound *= static_cast<double>(db.table(t).num_rows());
  return bound;
}

/// The part of the output contract every estimator meets today. The upper
/// bound (JoinUpperBound) is not enforced by the library yet, so answers
/// above it are counted in ce.answers_out_of_bounds, not as failures.
bool EstimateValid(double estimate) {
  return std::isfinite(estimate) && estimate >= 1.0;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// Writes the spans of a traced run to lcebench-out/ and says where.
void WriteSpans(const std::string& workload, uint64_t seed,
                const std::vector<Span>& spans) {
  const std::string path = std::string(kTraceDir) + "/" + workload + "-seed" +
                           std::to_string(seed) + ".trace.json";
  if (WriteChromeTrace(path, spans)) {
    std::printf("spans written to %s\n", path.c_str());
  }
}

// ----------------------------------------------------------------- serving

struct ServeSpec {
  std::string model;
  int builds = 1;  // >1: client 0 alternates the builds under one name
  lce::ce::NeuralOptions neural;
};

struct ServeSetup {
  std::unique_ptr<Database> db;
  std::vector<std::string> sqls;  // the request stream
  std::vector<std::shared_ptr<Estimator>> builds;
  // expected[b][i]: the direct EstimateBatch answer of build b to sqls[i].
  std::vector<std::vector<double>> expected;
  std::vector<double> qerrors;  // accuracy report of every build, pooled
  double setup_s = 0;
  double train_eval_s = 0;  // label + build + accuracy report
  uint64_t attempted = 0;   // builds and parses
  uint64_t failed = 0;
  uint64_t out_of_bounds = 0;  // expected answers above the join bound
};

ServeSetup SetUpServe(const ServeSpec& spec, uint64_t seed, SpanLog* log,
                      StepTimes* times) {
  ServeSetup out;
  ScopedSpan root(log, "setup");
  out.db = MakeDatabase(lce::storage::datagen::TpchLikeSpec(kScale), log,
                        root.id(), times);
  const int64_t train_eval_start = NowNs();
  std::vector<LabeledQuery> train, test;
  Label(*out.db, log, root.id(), times, &train, &test);

  // The request stream is the test workload rendered to SQL, in an order
  // drawn from the seed. It is parsed here once so the expected answers are
  // for exactly what the service estimates.
  std::vector<Query> parsed;
  std::vector<LabeledQuery> scored;
  {
    ScopedSpan s(log, "query.render", root.id());
    for (size_t k : SeedOrder(test.size(), seed)) {
      const LabeledQuery& lq = test[k];
      std::string sql = lce::query::ToSql(lq.q, out.db->schema());
      Result<Query> q = lce::query::ParseSql(sql, *out.db);
      ++out.attempted;
      if (!q.ok()) {
        ++out.failed;
        continue;
      }
      out.sqls.push_back(std::move(sql));
      scored.push_back({q.value(), lq.cardinality});
      parsed.push_back(std::move(q).value());
    }
  }

  for (int b = 0; b < spec.builds; ++b) {
    lce::telemetry::PhaseScope phase(spec.model);
    std::shared_ptr<Estimator> est =
        lce::ce::MakeEstimator(spec.model, spec.neural, ModelSeed(b));
    Status st;
    {
      ScopedSpan s(log, "ce.build." + spec.model, root.id());
      st = est->Build(*out.db, train);
      times->build_s[spec.model].push_back(s.End());
    }
    ++out.attempted;
    if (!st.ok()) {
      std::fprintf(stderr, "build of %s failed: %s\n", spec.model.c_str(),
                   st.ToString().c_str());
      ++out.failed;
      continue;
    }
    {
      ScopedSpan s(log, "eval.accuracy." + spec.model, root.id());
      lce::eval::AccuracyReport r = lce::eval::EvaluateAccuracy(est.get(), scored);
      times->eval_s[spec.model].push_back(s.End());
      out.qerrors.insert(out.qerrors.end(), r.qerrors.begin(), r.qerrors.end());
    }
    out.builds.push_back(std::move(est));
  }
  out.train_eval_s =
      static_cast<double>(NowNs() - train_eval_start) * 1e-9;
  out.setup_s = root.End();

  for (const std::shared_ptr<Estimator>& est : out.builds) {
    out.expected.push_back(est->EstimateBatch(parsed));
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (out.expected.back()[i] > JoinUpperBound(*out.db, parsed[i])) {
        ++out.out_of_bounds;
      }
    }
  }
  return out;
}

/// One request's clock stamps in the traced window.
struct RequestRecord {
  int64_t t0 = 0;  // before ParseSql
  int64_t t1 = 0;  // after ParseSql, before Estimate
  int64_t t2 = 0;  // after Estimate returned
  double wait_us = 0;
  int batch = 0;
};

/// The measurement window, cut into equal sub-windows; fixed before the
/// clients start so each records straight into its sub-window.
struct Schedule {
  int64_t start_ns = 0;  // after kWarmupSeconds
  int64_t window_ns = 0;
  size_t windows = 1;
  int64_t end_ns() const {
    return start_ns + window_ns * static_cast<int64_t>(windows);
  }
};

struct ClientResult {
  std::vector<LatencyHistogram> windows;  // correct answers, by completion
  std::vector<RequestRecord> records;     // traced window only
  std::vector<double> register_us;        // swaps made by this client
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct LoopConfig {
  lce::serve::EstimationService* service = nullptr;
  const ServeSetup* setup = nullptr;
  std::string model;
  int clients = 1;
  double measure_s = 1;
  bool split_parse = false;  // traced: ParseSql, then Estimate, both timed
  // What client 0 registers in turn every kSwapEvery requests; registration
  // k (1-based version) serves builds[(k - 1) % builds.size()].
  std::vector<std::shared_ptr<Estimator>> swap_models;
};

struct LoopResult {
  std::vector<ClientResult> clients;
  Schedule schedule;
};

bool AnswerMatches(const ServeSetup& setup,
                   const lce::serve::EstimateResponse& r, size_t i) {
  if (r.model_version == 0) return false;
  const size_t b = (r.model_version - 1) % setup.expected.size();
  return EstimateValid(r.estimate) && SameBits(r.estimate, setup.expected[b][i]);
}

void ClientLoop(const LoopConfig& cfg, const Schedule& sched, int client,
                const std::atomic<bool>& stop, ClientResult* out) {
  const std::vector<std::string>& sqls = cfg.setup->sqls;
  // Staggered starting offsets give every flush a mix of query shapes.
  size_t i = static_cast<size_t>(client) * sqls.size() /
             static_cast<size_t>(cfg.clients);
  const bool swaps = client == 0 && cfg.swap_models.size() > 1;
  size_t next_swap = 1;
  int since_swap = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    RequestRecord rec;
    rec.t0 = NowNs();
    Result<lce::serve::EstimateResponse> resp = Status::Internal("unset");
    if (cfg.split_parse) {
      Result<Query> q = lce::query::ParseSql(sqls[i], *cfg.setup->db);
      rec.t1 = NowNs();
      if (q.ok()) {
        resp = cfg.service->Estimate(cfg.model, q.value());
      } else {
        resp = q.status();
      }
    } else {
      resp = cfg.service->EstimateSql(cfg.model, sqls[i]);
    }
    rec.t2 = NowNs();
    ++out->attempted;
    if (resp.ok() && AnswerMatches(*cfg.setup, resp.value(), i)) {
      if (rec.t2 >= sched.start_ns && rec.t2 < sched.end_ns()) {
        out->windows[static_cast<size_t>((rec.t2 - sched.start_ns) /
                                         sched.window_ns)]
            .Add(static_cast<double>(rec.t2 - rec.t0) * 1e-3);
        if (cfg.split_parse) {
          rec.wait_us = resp.value().queue_wait_us;
          rec.batch = resp.value().batch_size;
          out->records.push_back(rec);
        }
      }
    } else {
      ++out->failed;
    }
    if (swaps && ++since_swap == kSwapEvery) {
      since_swap = 0;
      const int64_t r0 = NowNs();
      cfg.service->RegisterModel(cfg.model, cfg.swap_models[next_swap]);
      out->register_us.push_back(static_cast<double>(NowNs() - r0) * 1e-3);
      next_swap = (next_swap + 1) % cfg.swap_models.size();
    }
    i = (i + 1) % sqls.size();
  }
}

/// Closed loop: each client sends its next request when the previous one is
/// answered. Runs kWarmupSeconds, then the measurement window of
/// kWindowSeconds sub-windows.
LoopResult RunClosedLoop(const LoopConfig& cfg) {
  LoopResult r;
  Schedule& sched = r.schedule;
  sched.windows = std::max<size_t>(
      1, static_cast<size_t>(cfg.measure_s / kWindowSeconds + 1e-9));
  sched.window_ns = static_cast<int64_t>(cfg.measure_s * 1e9) /
                    static_cast<int64_t>(sched.windows);
  r.clients.resize(static_cast<size_t>(cfg.clients));
  for (ClientResult& c : r.clients) {
    c.windows.resize(sched.windows);
    // Sized for ~150k requests/s so a reallocation never lands in the window.
    if (cfg.split_parse) {
      c.records.reserve(static_cast<size_t>(150000.0 * cfg.measure_s) /
                        static_cast<size_t>(cfg.clients));
    }
  }
  sched.start_ns =
      NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&cfg, &sched, c, &stop, &r] {
        ClientLoop(cfg, sched, c, stop, &r.clients[static_cast<size_t>(c)]);
      });
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(sched.end_ns() - NowNs()));
    stop.store(true);
  }  // jthreads join here
  return r;
}

/// A fresh service (default batching) with `first` registered; returns the
/// RegisterModel time in microseconds.
double RegisterFirst(lce::serve::EstimationService* service,
                     const std::string& model,
                     std::shared_ptr<Estimator> first) {
  const int64_t t0 = NowNs();
  service->RegisterModel(model, std::move(first));
  return static_cast<double>(NowNs() - t0) * 1e-3;
}

void CountLoop(const LoopResult& r, Outcome* out) {
  for (const ClientResult& c : r.clients) {
    out->attempted += c.attempted;
    out->failed += c.failed;
  }
}

struct WindowStats {
  double rps = 0, p50_us = 0, p99_us = 0;
  uint64_t samples = 0;
  size_t windows = 0;
  uint64_t min_p99_beyond = 0;  // fewest samples above p99 in any window
  double mean_us = 0;
};

/// Throughput and latency quantiles per sub-window, reported at the fast
/// decile of the sub-windows (kFastQuantile), so outside load moves them
/// little.
WindowStats Windowed(const LoopResult& r) {
  WindowStats out;
  out.windows = r.schedule.windows;
  out.min_p99_beyond = UINT64_MAX;
  std::vector<double> rps, p50, p99;
  double sum_us = 0;
  for (size_t w = 0; w < r.schedule.windows; ++w) {
    LatencyHistogram h;
    for (const ClientResult& c : r.clients) h.Merge(c.windows[w]);
    out.samples += h.count();
    sum_us += h.sum();
    rps.push_back(static_cast<double>(h.count()) /
                  (static_cast<double>(r.schedule.window_ns) * 1e-9));
    p50.push_back(h.QuantileOf(0.50).value);
    const Quantile q99 = h.QuantileOf(0.99);
    p99.push_back(q99.value);
    out.min_p99_beyond = std::min<uint64_t>(out.min_p99_beyond, q99.beyond);
  }
  out.rps = FastRate(rps);
  out.p50_us = FastTime(p50);
  out.p99_us = FastTime(p99);
  out.mean_us = out.samples > 0 ? sum_us / static_cast<double>(out.samples) : 0;
  return out;
}

void AddQerr(const std::vector<double>& qerrors, Outcome* out) {
  out->Add("qerr_p50", QuantileOf(qerrors, 0.50).value, "ratio", qerrors.size());
  out->Add("qerr_p95", QuantileOf(qerrors, 0.95).value, "ratio", qerrors.size());
}

double PeakRssMb() {
  return static_cast<double>(lce::telemetry::PeakRssBytes()) / (1024.0 * 1024.0);
}

/// Per-layer view of the traced window, built from the per-request stamps,
/// the flush log, and the span tree each request implies:
///   request ─┬─ query.parse
///            └─ serve.call ─┬─ serve.queue_wait   (the ticket's wait)
///                           └─ ce.flush           (the flush that answered)
struct ServeTrace {
  size_t requests = 0;
  size_t unmatched = 0;  // requests whose flush could not be identified
  double parse_ns = 0, call_ns = 0, wait_ns = 0, request_ns = 0;
  std::map<std::string, int64_t> self_by_span;  // by span name
  size_t flushes = 0;
  double flush_ns = 0, flush_rows = 0;
};

ServeTrace AnalyzeTrace(const LoopResult& r, std::vector<Flush> flushes,
                        SpanLog* file_log) {
  std::sort(flushes.begin(), flushes.end(),
            [](const Flush& a, const Flush& b) { return a.start_ns < b.start_ns; });
  ServeTrace t;
  for (const Flush& f : flushes) {
    if (f.start_ns < r.schedule.start_ns || f.end_ns > r.schedule.end_ns()) {
      continue;
    }
    ++t.flushes;
    t.flush_ns += static_cast<double>(f.end_ns - f.start_ns);
    t.flush_rows += f.rows;
  }
  uint64_t request_id = 0;
  std::vector<Span> spans(5);
  for (const ClientResult& c : r.clients) {
    for (const RequestRecord& rec : c.records) {
      if (rec.t0 < r.schedule.start_ns) continue;
      ++request_id;
      const int64_t wait_ns = static_cast<int64_t>(rec.wait_us * 1e3);
      // Flushes of one model never overlap (one leader at a time), and the
      // batcher stamps the flush start before the decorator does, so the
      // answering flush is the first one starting at or after enqueue + wait
      // with this request's batch size.
      auto it = std::lower_bound(
          flushes.begin(), flushes.end(), rec.t1 + wait_ns,
          [](const Flush& f, int64_t v) { return f.start_ns < v; });
      while (it != flushes.end() && it->end_ns <= rec.t2 &&
             it->rows != rec.batch) {
        ++it;
      }
      const bool matched =
          it != flushes.end() && it->end_ns <= rec.t2 && it->rows == rec.batch;
      spans.resize(matched ? 5 : 4);
      // Ids clear of the set-up spans', which count up from 1.
      const uint64_t base = (1ULL << 40) + request_id * 8;
      spans[0] = {base + 1, 0, request_id, "request", rec.t0, rec.t2};
      spans[1] = {base + 2, base + 1, request_id, "query.parse", rec.t0, rec.t1};
      spans[2] = {base + 3, base + 1, request_id, "serve.call", rec.t1, rec.t2};
      spans[3] = {base + 4, base + 3, request_id, "serve.queue_wait", rec.t1,
                  std::min(rec.t2, rec.t1 + wait_ns)};
      if (matched) {
        spans[4] = {base + 5, base + 3, request_id, "ce.flush", it->start_ns,
                    it->end_ns};
      } else {
        ++t.unmatched;
      }
      const std::vector<int64_t> self = SelfTimesNs(spans);
      for (size_t k = 0; k < spans.size(); ++k) {
        t.self_by_span[spans[k].name] += self[k];
      }
      ++t.requests;
      t.parse_ns += static_cast<double>(rec.t1 - rec.t0);
      t.call_ns += static_cast<double>(rec.t2 - rec.t1);
      t.wait_ns += static_cast<double>(wait_ns);
      t.request_ns += static_cast<double>(rec.t2 - rec.t0);
      if (request_id <= kTraceFileRequests) {
        for (const Span& s : spans) file_log->Add(s);
      }
    }
  }
  return t;
}

Outcome RunServe(const std::string& workload, const ServeSpec& spec,
                 uint64_t seed, double seconds, bool trace,
                 lce::JsonWriter* context) {
  Outcome out;
  const int clients = std::min<int>(
      kMaxClients, std::max(1u, std::thread::hardware_concurrency()));
  const lce::serve::BatcherOptions batching;  // the service defaults
  SpanLog setup_log, request_log;
  StepTimes times;

  // Serves from the last set-up.
  std::vector<double> setup_s, train_eval_s;
  ServeSetup setup;
  while (MoreSetups(setup_s, trace)) {
    setup = ServeSetup();  // release the previous database and models first
    setup = SetUpServe(spec, seed, trace ? &setup_log : nullptr, &times);
    setup_s.push_back(setup.setup_s);
    train_eval_s.push_back(setup.train_eval_s);
    out.attempted += setup.attempted;
    out.failed += setup.failed;
  }
  out.out_of_bounds = setup.out_of_bounds;

  context->Key("clients").Value(clients);
  context->Key("batcher").BeginObject()
      .Key("enabled").Value(batching.enabled)
      .Key("max_batch").Value(batching.max_batch)
      .Key("deadline_us").Value(batching.deadline_us)
      .EndObject();
  context->Key("swap_every").Value(spec.builds > 1 ? kSwapEvery : 0);
  context->Key("model").Value(spec.model);
  if (spec.model == "MSCN") {
    context->Key("hidden_dim").Value(spec.neural.hidden_dim);
    context->Key("hidden_layers").Value(spec.neural.num_hidden_layers);
    context->Key("epochs").Value(spec.neural.epochs);
  }
  context->Key("model_bytes").BeginArray();
  for (const auto& b : setup.builds) context->Value(b->SizeBytes());
  context->EndArray();
  context->Key("requests_in_stream").Value(static_cast<uint64_t>(setup.sqls.size()));

  if (setup.builds.size() != static_cast<size_t>(spec.builds) ||
      setup.sqls.empty()) {
    out.failed = std::max<uint64_t>(out.failed, 1);  // nothing to serve
    return out;
  }

  LoopConfig cfg;
  cfg.setup = &setup;
  cfg.model = spec.model;
  cfg.clients = clients;

  if (!trace) {
    lce::serve::EstimationService service(setup.db.get(), batching);
    RegisterFirst(&service, spec.model, setup.builds[0]);
    cfg.service = &service;
    cfg.measure_s = seconds;
    cfg.swap_models = setup.builds;
    const LoopResult r = RunClosedLoop(cfg);
    CountLoop(r, &out);
    const WindowStats w = Windowed(r);
    std::printf("serve: %llu answers in %zu windows of %.2fs; fewest samples "
                "beyond p99 in a window: %llu\n",
                static_cast<unsigned long long>(w.samples), w.windows,
                kWindowSeconds,
                static_cast<unsigned long long>(w.min_p99_beyond));
    out.Add("setup_s", Median(setup_s), "s", setup_s.size());
    out.Add("throughput_rps", w.rps, "1/s", w.windows);
    out.Add("latency_p50_us", w.p50_us, "us", w.samples);
    out.Add("latency_p99_us", w.p99_us, "us", w.samples);
    out.Add("train_eval_s", FastTime(train_eval_s), "s", train_eval_s.size());
    AddQerr(setup.qerrors, &out);
    out.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    return out;
  }

  // Traced run: a traced window of seconds/2 between two untraced windows
  // of seconds/4 (library metrics off, as in --trace 0), so a drift over the
  // run cancels out of trace.overhead_frac.
  const double traced_s = std::max(kWindowSeconds, seconds / 2);
  std::vector<double> untraced_means;
  auto untraced_window = [&] {
    MetricsOff off;
    lce::serve::EstimationService service(setup.db.get(), batching);
    RegisterFirst(&service, spec.model, setup.builds[0]);
    LoopConfig plain = cfg;
    plain.service = &service;
    plain.measure_s = std::max(kWindowSeconds, seconds / 4);
    plain.swap_models = setup.builds;
    const LoopResult r = RunClosedLoop(plain);
    CountLoop(r, &out);
    untraced_means.push_back(Windowed(r).mean_us);
  };
  untraced_window();

  FlushLog flush_log;
  std::vector<std::shared_ptr<Estimator>> timed;
  for (const auto& b : setup.builds) {
    timed.push_back(std::make_shared<TimingEstimator>(b, &flush_log));
  }
  lce::serve::EstimationService service(setup.db.get(), batching);
  std::vector<double> register_us = {
      RegisterFirst(&service, spec.model, timed[0])};
  cfg.service = &service;
  cfg.measure_s = traced_s;
  cfg.swap_models = timed;
  cfg.split_parse = true;
  const LoopResult r = RunClosedLoop(cfg);
  const uint64_t failed_before = out.failed;
  CountLoop(r, &out);
  const uint64_t failed_traced = out.failed - failed_before;
  untraced_window();
  const double untraced_mean_us = Mean(untraced_means);
  for (const ClientResult& c : r.clients) {
    register_us.insert(register_us.end(), c.register_us.begin(),
                       c.register_us.end());
  }
  const ServeTrace t = AnalyzeTrace(r, flush_log.Snapshot(), &request_log);
  const double n = std::max<double>(1, static_cast<double>(t.requests));
  const double nf = std::max<double>(1, static_cast<double>(t.flushes));

  const std::map<std::string, uint64_t> counters = LibraryCounters();
  std::map<std::string, int64_t> setup_layers;
  AddSelfTimesByLayer(setup_log.Snapshot(), &setup_layers);
  SplitBuildPhases(counters, &setup_layers);

  // Attributed: time inside a measured step of a named layer (parse, queue
  // wait, flush). The self time of serve.call (the residual: routing,
  // counters, exec_mu, wake-up) and of the request root is not explained.
  std::map<std::string, int64_t> path = t.self_by_span;
  const double attributed = static_cast<double>(
      path["query.parse"] + path["serve.queue_wait"] + path["ce.flush"]);
  PrintLayerTable("setup", setup_layers, Median(setup_s) * 1e9, 1);
  PrintLayerTable("request path (per request)", path, t.request_ns, n);
  std::printf("traced requests: %zu (%zu without an identified flush)\n",
              t.requests, t.unmatched);

  out.Add("query.parse_us", t.parse_ns * 1e-3 / n, "us", t.requests);
  out.Add("serve.call_us", t.call_ns * 1e-3 / n, "us", t.requests);
  out.Add("serve.queue_wait_us", t.wait_ns * 1e-3 / n, "us", t.requests);
  out.Add("serve.batch_rows", t.flush_rows / nf, "rows", t.flushes);
  out.Add("serve.residual_us", static_cast<double>(path["serve.call"]) * 1e-3 / n,
          "us", t.requests);
  out.Add("serve.register_us", Mean(register_us), "us", register_us.size());
  out.Add("ce.flush_us", t.flush_ns * 1e-3 / nf, "us", t.flushes);
  out.Add("ce.row_us",
          t.flush_rows > 0 ? t.flush_ns * 1e-3 / t.flush_rows : 0.0, "us",
          static_cast<size_t>(t.flush_rows));
  out.Add("ce.answers_failed", static_cast<double>(failed_traced), "count",
          t.requests);
  out.Add("ce.answers_out_of_bounds", static_cast<double>(out.out_of_bounds),
          "count", setup.expected.size() * setup.sqls.size());
  AddCommonLayerMetrics(times, counters, &out);
  const double traced_mean_us = t.request_ns * 1e-3 / n;
  out.Add("trace.overhead_frac",
          untraced_mean_us > 0 ? traced_mean_us / untraced_mean_us - 1 : 0.0,
          "frac", t.requests);
  out.Add("trace.attributed_frac",
          t.request_ns > 0 ? attributed / t.request_ns : 0.0, "frac",
          t.requests);

  std::vector<Span> all = setup_log.Snapshot();
  std::vector<Span> req = request_log.Snapshot();
  all.insert(all.end(), req.begin(), req.end());
  WriteSpans(workload, seed, all);
  return out;
}

// -------------------------------------------------------------- train-eval

// A run makes max(2, seconds / kPassSeconds) timed passes, a number that
// does not depend on the host's speed, so neither do the fast deciles taken
// over them. The inference costs (R2's third cost) are sampled in rounds
// between the steps of every pass after the first, so they are taken all
// through the run. After a step of d seconds, rounds run for about
// d * ratio (at least one), the ratio chosen so the passes fill --seconds.
constexpr double kPassSeconds = 7.5;

struct PassResult {
  double seconds = 0;  // label + builds + accuracy reports, rounds excluded
  std::vector<double> qerrors;  // pooled over the models
  std::vector<LabeledQuery> test;  // in the order --seed draws
  std::vector<std::unique_ptr<Estimator>> built;
  std::vector<lce::eval::AccuracyReport> reports;
};

/// Runs between the steps of a pass, given the step's seconds.
using StepHook = std::function<void(double)>;

/// One labeled workload through training to an accuracy report (timed, with
/// `between` run after each step and left out of the time), then the answer
/// checks: every estimate finite and >= 1, reproducing the report's q-error
/// bit for bit. Estimates above the join upper bound are counted apart.
PassResult TrainEvalPass(const Database& db, uint64_t seed, SpanLog* log,
                         StepTimes* times, Outcome* out,
                         const StepHook& between) {
  PassResult pass;
  std::vector<LabeledQuery> train;
  int64_t paused_ns = 0;
  int64_t step_start = NowNs();
  auto step_done = [&] {
    if (!between) return;
    const int64_t now = NowNs();
    between(static_cast<double>(now - step_start) * 1e-9);
    step_start = NowNs();
    paused_ns += step_start - now;
  };
  {
    ScopedSpan root(log, "train_eval");
    std::vector<LabeledQuery> labeled;
    Label(db, log, root.id(), times, &train, &labeled);
    for (size_t k : SeedOrder(labeled.size(), seed)) {
      pass.test.push_back(labeled[k]);
    }
    step_done();
    for (const std::string& name : kTrainEvalModels) {
      lce::telemetry::PhaseScope phase(name);
      std::unique_ptr<Estimator> est =
          lce::ce::MakeEstimator(name, TrainEvalNeuralOptions(), ModelSeed(0));
      Status st;
      {
        ScopedSpan s(log, "ce.build." + name, root.id());
        st = est->Build(db, train);
        times->build_s[name].push_back(s.End());
      }
      ++out->attempted;
      if (!st.ok()) {
        std::fprintf(stderr, "build of %s failed: %s\n", name.c_str(),
                     st.ToString().c_str());
        ++out->failed;
        continue;
      }
      {
        ScopedSpan s(log, "eval.accuracy." + name, root.id());
        pass.reports.push_back(lce::eval::EvaluateAccuracy(est.get(), pass.test));
        times->eval_s[name].push_back(s.End());
      }
      pass.qerrors.insert(pass.qerrors.end(),
                          pass.reports.back().qerrors.begin(),
                          pass.reports.back().qerrors.end());
      pass.built.push_back(std::move(est));
      step_done();
    }
    pass.seconds = root.End() - static_cast<double>(paused_ns) * 1e-9;
  }
  for (size_t m = 0; m < pass.built.size(); ++m) {
    for (size_t i = 0; i < pass.test.size(); ++i) {
      const double e = pass.built[m]->EstimateCardinality(pass.test[i].q);
      ++out->attempted;
      if (!EstimateValid(e) ||
          !SameBits(lce::eval::QError(e, pass.test[i].cardinality),
                    pass.reports[m].qerrors[i])) {
        ++out->failed;
      }
      if (e > JoinUpperBound(db, pass.test[i].q)) ++out->out_of_bounds;
    }
  }
  return pass;
}

/// Inference-cost samples of one trained zoo, one entry per round.
struct CostSamples {
  std::vector<std::vector<double>> scoring_s;  // [model]: EvaluateAccuracy
  std::vector<std::vector<float>> latency_us;  // [model * nq + query]
  size_t rounds = 0;
};

/// One round over `ref`'s models, each checked against its accuracy report:
/// EvaluateAccuracy timed per model, then EstimateCardinality timed per query.
void CostRound(const PassResult& ref, CostSamples* s, Outcome* out) {
  const size_t nq = ref.test.size();
  s->scoring_s.resize(ref.built.size());
  s->latency_us.resize(ref.built.size() * nq);
  for (size_t m = 0; m < ref.built.size(); ++m) {
    Estimator* est = ref.built[m].get();
    const int64_t t0 = NowNs();
    const lce::eval::AccuracyReport again =
        lce::eval::EvaluateAccuracy(est, ref.test);
    s->scoring_s[m].push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    ++out->attempted;
    if (!SameBits(again.qerrors, ref.reports[m].qerrors)) ++out->failed;
    for (size_t i = 0; i < nq; ++i) {
      const int64_t q0 = NowNs();
      const double e = est->EstimateCardinality(ref.test[i].q);
      s->latency_us[m * nq + i].push_back(
          static_cast<float>(static_cast<double>(NowNs() - q0) * 1e-3));
      ++out->attempted;
      if (!EstimateValid(e) ||
          !SameBits(lce::eval::QError(e, ref.test[i].cardinality),
                    ref.reports[m].qerrors[i])) {
        ++out->failed;
      }
    }
  }
  ++s->rounds;
}

/// The geometric mean over the models of quantile q of each query's fast
/// decile latency, so that every model weighs the same whatever its speed.
double ZooLatencyQuantile(const CostSamples& s, size_t models, size_t nq,
                          double q) {
  double log_sum = 0;
  for (size_t m = 0; m < models; ++m) {
    std::vector<double> per_query;
    for (size_t i = 0; i < nq; ++i) {
      const std::vector<float>& v = s.latency_us[m * nq + i];
      per_query.push_back(FastTime({v.begin(), v.end()}));
    }
    log_sum += std::log(std::max(QuantileOf(per_query, q).value, 1e-3));
  }
  return models > 0 ? std::exp(log_sum / static_cast<double>(models)) : 0.0;
}

Outcome RunTrainEval(const std::string& workload, uint64_t seed, double seconds,
                     bool trace, lce::JsonWriter* context) {
  Outcome out;
  SpanLog setup_log, pass_log;
  StepTimes times;
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  while (MoreSetups(setup_s, trace)) {
    db.reset();
    ScopedSpan root(trace ? &setup_log : nullptr, "setup");
    db = MakeDatabase(lce::storage::datagen::ImdbLikeSpec(kScale),
                      trace ? &setup_log : nullptr, root.id(), &times);
    setup_s.push_back(root.End());
  }
  context->Key("models").BeginArray();
  for (const std::string& m : kTrainEvalModels) context->Value(m);
  context->EndArray();
  context->Key("hidden_dim").Value(TrainEvalNeuralOptions().hidden_dim);
  context->Key("epochs").Value(TrainEvalNeuralOptions().epochs);

  if (!trace) {
    // At least two passes, so determinism is checked. The first pass's
    // models are the ones whose costs are sampled.
    const int passes = std::max(2, static_cast<int>(seconds / kPassSeconds));
    const int64_t start = NowNs();
    const PassResult first =
        TrainEvalPass(*db, seed, nullptr, &times, &out, nullptr);
    double last_s = first.seconds;
    CostSamples costs;
    double ratio = 0;
    const StepHook rounds = [&](double step_s) {
      const int64_t t0 = NowNs();
      do {
        CostRound(first, &costs, &out);
      } while (static_cast<double>(NowNs() - t0) * 1e-9 < step_s * ratio);
    };
    for (int done = 1; done < passes; ++done) {
      // Spread the time left evenly over the passes left.
      const double left = seconds - static_cast<double>(NowNs() - start) * 1e-9;
      ratio = std::max(0.0, left / (passes - done) / last_s - 1);
      const PassResult p =
          TrainEvalPass(*db, seed, nullptr, &times, &out, rounds);
      if (!SameBits(p.qerrors, first.qerrors)) {
        std::fprintf(stderr, "q-errors differ between passes\n");
        ++out.failed;
      }
      last_s = p.seconds;
    }
    // A pass assembled from the fast decile of each of its steps.
    double train_eval_s = FastTime(times.label_s);
    for (const std::string& m : kTrainEvalModels) {
      train_eval_s += FastTime(times.build_s[m]) + FastTime(times.eval_s[m]);
    }
    const size_t models = first.built.size();
    const size_t nq = first.test.size();
    double scoring_s = 0;
    for (const std::vector<double>& v : costs.scoring_s) scoring_s += FastTime(v);
    const size_t samples = costs.rounds * models * nq;
    out.Add("setup_s", Median(setup_s), "s", setup_s.size());
    out.Add("throughput_rps",
            scoring_s > 0 ? static_cast<double>(models * nq) / scoring_s : 0.0,
            "1/s", costs.rounds * models);
    out.Add("latency_p50_us", ZooLatencyQuantile(costs, models, nq, 0.50),
            "us", samples);
    out.Add("latency_p99_us", ZooLatencyQuantile(costs, models, nq, 0.99),
            "us", samples);
    out.Add("train_eval_s", train_eval_s, "s", static_cast<size_t>(passes));
    AddQerr(first.qerrors, &out);
    out.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    return out;
  }

  // Traced run: a traced pass between two untraced passes (library metrics
  // off, as in --trace 0), so the cold first pass and any drift cancel out
  // of trace.overhead_frac. All three must score exactly the same q-errors.
  std::vector<PassResult> untraced;
  auto untraced_pass = [&] {
    MetricsOff off;
    StepTimes ignored;
    untraced.push_back(
        TrainEvalPass(*db, seed, nullptr, &ignored, &out, nullptr));
  };
  untraced_pass();
  const uint64_t failed_before = out.failed;
  const uint64_t out_of_bounds_before = out.out_of_bounds;
  const PassResult traced =
      TrainEvalPass(*db, seed, &pass_log, &times, &out, nullptr);
  const uint64_t failed_traced = out.failed - failed_before;
  const uint64_t out_of_bounds_traced = out.out_of_bounds - out_of_bounds_before;
  untraced_pass();
  for (const PassResult& p : untraced) {
    if (!SameBits(p.qerrors, traced.qerrors)) {
      std::fprintf(stderr, "q-errors differ between passes\n");
      ++out.failed;
    }
  }
  const double untraced_s = (untraced[0].seconds + untraced[1].seconds) / 2;
  const std::map<std::string, uint64_t> counters = LibraryCounters();

  std::map<std::string, int64_t> setup_layers, path;
  AddSelfTimesByLayer(setup_log.Snapshot(), &setup_layers);
  const std::vector<Span> pass_spans = pass_log.Snapshot();
  AddSelfTimesByLayer(pass_spans, &path);
  SplitBuildPhases(counters, &path);
  int64_t attributed = 0;
  for (const auto& [layer, ns] : path) {
    if (layer != "train_eval") attributed += ns;
  }
  PrintLayerTable("setup", setup_layers, Median(setup_s) * 1e9, 1);
  PrintLayerTable("train-eval pass", path, traced.seconds * 1e9, 1);

  for (const char* name :
       {"query.parse_us", "serve.call_us", "serve.queue_wait_us",
        "serve.batch_rows", "serve.residual_us", "serve.register_us",
        "ce.flush_us", "ce.row_us"}) {
    const std::string n(name);
    const std::string unit = n == "serve.batch_rows" ? "rows" : "us";
    out.Add(n, 0.0, unit, 0);  // the serve path is not used here
  }
  out.Add("ce.answers_failed", static_cast<double>(failed_traced), "count",
          traced.qerrors.size());
  out.Add("ce.answers_out_of_bounds", static_cast<double>(out_of_bounds_traced),
          "count", traced.qerrors.size());
  AddCommonLayerMetrics(times, counters, &out);
  out.Add("trace.overhead_frac",
          untraced_s > 0 ? traced.seconds / untraced_s - 1 : 0.0, "frac", 2);
  out.Add("trace.attributed_frac",
          traced.seconds > 0
              ? static_cast<double>(attributed) * 1e-9 / traced.seconds
              : 0.0,
          "frac", pass_spans.size());

  std::vector<Span> all = setup_log.Snapshot();
  all.insert(all.end(), pass_spans.begin(), pass_spans.end());
  WriteSpans(workload, seed, all);
  return out;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      a->trace = t == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a->seconds > 0 && a->trace >= 0 &&
         std::find(kWorkloads.begin(), kWorkloads.end(), a->workload) !=
             kWorkloads.end();
}

void PrintMetrics(const Outcome& out) {
  std::printf("operations: %llu attempted, %llu failed; %llu valid answers "
              "above the join upper bound\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.out_of_bounds));
  std::printf("%-28s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : out.metrics) {
    std::printf("%-28s %16.6g %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

std::string ResultLine(const Outcome& out) {
  bool finite = true;
  std::string line;
  lce::JsonWriter w(&line, lce::JsonWriter::Style::kCompact);
  for (const Metric& m : out.metrics) finite = finite && std::isfinite(m.value);
  w.BeginObject()
      .Key("correct").Value(out.failed == 0 && finite)
      .Key("attempted").Value(std::max<uint64_t>(1, out.attempted))
      .Key("failed").Value(out.failed)
      .Key("metrics").BeginObject();
  for (const Metric& m : out.metrics) {
    w.Key(m.name).BeginObject()
        .Key("value").Value(std::isfinite(m.value) ? m.value : 0.0)
        .Key("unit").Value(m.unit)
        .EndObject();
  }
  w.EndObject().EndObject();
  return line;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lcebench --workload <serve-mscn|serve-lwxgb-swap|"
                 "train-eval> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const bool trace = args.trace == 1;
  std::string context;
  lce::JsonWriter ctx(&context, lce::JsonWriter::Style::kCompact);
  ctx.BeginObject()
      .Key("workload").Value(args.workload)
      .Key("seed").Value(args.seed)
      .Key("seconds").Value(args.seconds)
      .Key("trace").Value(trace)
      .Key("nproc").Value(static_cast<int>(std::thread::hardware_concurrency()))
      .Key("pool_threads").Value(lce::parallel::ThreadCount())
      .Key("metrics_enabled").Value(lce::telemetry::MetricsEnabled())
      .Key("scale").Value(kScale)
      .Key("train_queries").Value(kTrainQueries)
      .Key("test_queries").Value(kTestQueries);

  Outcome out;
  if (args.workload == "train-eval") {
    out = RunTrainEval(args.workload, args.seed, args.seconds, trace, &ctx);
  } else {
    ServeSpec spec;
    if (args.workload == "serve-mscn") {
      spec.model = "MSCN";
      spec.neural = ServingNeuralOptions();
    } else {
      spec.model = "LW-XGB";
      spec.builds = 2;
    }
    out = RunServe(args.workload, spec, args.seed, args.seconds, trace, &ctx);
  }
  ctx.EndObject();
  std::printf("context %s\n", context.c_str());
  PrintMetrics(out);
  std::printf("%s\n", ResultLine(out).c_str());
  return 0;
}

}  // namespace
}  // namespace lcebench

int main(int argc, char** argv) { return lcebench::Main(argc, argv); }
