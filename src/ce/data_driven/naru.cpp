#include "src/ce/data_driven/naru.h"

#include <algorithm>
#include <cmath>

#include "src/nn/adam.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/train_log.h"

namespace lce {
namespace ce {

namespace {

// Softmax over a logits row in place.
void SoftmaxInPlace(std::vector<float>* logits) {
  float max_logit = *std::max_element(logits->begin(), logits->end());
  float sum = 0;
  for (float& v : *logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (float& v : *logits) v /= sum;
}

}  // namespace

void NaruTableModel::Fit(const storage::Table& table, const Options& options,
                         Rng* rng) {
  telemetry::ScopedPhase fit_phase("naru/table_fit");
  options_ = options;
  modeled_cols_.clear();
  conditionals_.clear();
  prefix_offset_.clear();
  marginal0_.clear();
  binners_ = FitBinners(table, options.max_bins);
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!table.schema().columns[c].is_key) modeled_cols_.push_back(c);
  }
  if (modeled_cols_.empty()) return;

  // Training sample of rows (uniform without replacement via partial F-Y).
  uint64_t n = table.num_rows();
  uint64_t take = std::min(options.max_training_rows, n);
  std::vector<uint64_t> ids(n);
  for (uint64_t i = 0; i < n; ++i) ids[i] = i;
  for (uint64_t i = 0; i < take; ++i) {
    uint64_t j = i + static_cast<uint64_t>(
                         rng->UniformInt(0, static_cast<int64_t>(n - i) - 1));
    std::swap(ids[i], ids[j]);
  }

  // Binned training matrix restricted to modeled columns.
  std::vector<std::vector<int>> rows(take,
                                     std::vector<int>(modeled_cols_.size()));
  for (size_t m = 0; m < modeled_cols_.size(); ++m) {
    const auto& col = table.column(modeled_cols_[m]);
    for (uint64_t i = 0; i < take; ++i) {
      rows[i][m] = binners_[modeled_cols_[m]].BinOf(col[ids[i]]);
    }
  }

  // Prefix layout.
  prefix_offset_.resize(modeled_cols_.size());
  prefix_dim_total_ = 0;
  for (size_t m = 0; m < modeled_cols_.size(); ++m) {
    prefix_offset_[m] = prefix_dim_total_;
    prefix_dim_total_ += binners_[modeled_cols_[m]].num_bins();
  }

  // Exact empirical marginal of the first modeled column.
  int bins0 = binners_[modeled_cols_[0]].num_bins();
  marginal0_.assign(bins0, 1e-6);  // smoothing
  for (const auto& row : rows) marginal0_[row[0]] += 1.0;
  double total = 0;
  for (double v : marginal0_) total += v;
  for (double& v : marginal0_) v /= total;

  // One conditional MLP per later column, trained with softmax CE.
  for (size_t m = 1; m < modeled_cols_.size(); ++m) {
    int in_dim = prefix_offset_[m];
    int out_dim = binners_[modeled_cols_[m]].num_bins();
    conditionals_.push_back(std::make_unique<nn::Mlp>(
        std::vector<int>{in_dim, options.hidden_dim, out_dim},
        nn::Activation::kRelu, nn::Activation::kIdentity, rng));
  }
  std::vector<int> order(take);
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  telemetry::ScopedPhase train_phase("naru/conditional_train");
  const bool train_log = telemetry::TrainLogEnabled();
  for (size_t m = 1; m < modeled_cols_.size(); ++m) {
    nn::Mlp* net = conditionals_[m - 1].get();
    nn::Adam adam(options.learning_rate);
    nn::MlpTape tape;
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      int64_t epoch_start = train_log ? telemetry::MonotonicNanos() : 0;
      double epoch_ce = 0;  // summed -log p[label]; log-only, read-only
      rng->Shuffle(&order);
      for (size_t start = 0; start < order.size();
           start += options.batch_size) {
        size_t end = std::min(order.size(),
                              start + static_cast<size_t>(options.batch_size));
        int b = static_cast<int>(end - start);
        // Batch of one-hot prefixes.
        nn::Matrix x(b, prefix_offset_[m]);
        std::vector<int> labels(b);
        for (int i = 0; i < b; ++i) {
          const auto& row = rows[order[start + i]];
          for (size_t p = 0; p < m; ++p) {
            x.At(i, prefix_offset_[p] + row[p]) = 1.0f;
          }
          labels[i] = row[m];
        }
        nn::Matrix logits = net->Forward(x, &tape);
        // Softmax CE gradient: p - onehot, averaged over the batch.
        nn::Matrix grad(b, logits.cols());
        for (int i = 0; i < b; ++i) {
          std::vector<float> p = logits.RowVector(i);
          SoftmaxInPlace(&p);
          if (train_log) {
            // Cross-entropy from the softmax already computed for the
            // gradient — pure read, cannot perturb training.
            epoch_ce -= std::log(
                std::max(static_cast<double>(p[labels[i]]), 1e-30));
          }
          for (int c = 0; c < logits.cols(); ++c) {
            grad.At(i, c) = (p[c] - (c == labels[i] ? 1.0f : 0.0f)) /
                            static_cast<float>(b);
          }
        }
        net->Backward(x, &tape, grad, /*dx=*/nullptr);
        adam.Step(net->Params());
      }
      if (train_log) {
        telemetry::TrainingEvent ev;
        ev.family = "naru";
        ev.event = "epoch";
        ev.index = epoch;
        ev.loss = order.empty()
                      ? 0.0
                      : epoch_ce / static_cast<double>(order.size());
        ev.learning_rate = options.learning_rate;
        ev.examples = static_cast<int64_t>(order.size());
        ev.wall_seconds =
            static_cast<double>(telemetry::MonotonicNanos() - epoch_start) /
            1e9;
        ev.extra.emplace_back("column", static_cast<double>(m));
        telemetry::RecordTrainingEvent(std::move(ev));
      }
    }
  }
}

std::vector<float> NaruTableModel::Conditional(
    int i, const std::vector<int>& prefix) const {
  if (i == 0) {
    return std::vector<float>(marginal0_.begin(), marginal0_.end());
  }
  nn::Matrix x(1, prefix_offset_[i]);
  for (int p = 0; p < i; ++p) x.At(0, prefix_offset_[p] + prefix[p]) = 1.0f;
  std::vector<float> logits = conditionals_[i - 1]->Forward(x).RowVector(0);
  SoftmaxInPlace(&logits);
  return logits;
}

double NaruTableModel::Selectivity(const ColumnRanges& ranges, Rng* rng,
                                   NaruSamplingStats* stats) const {
  if (modeled_cols_.empty()) return 1.0;
  // Progressive sampling only needs columns up to the last constrained one.
  int last = -1;
  for (size_t m = 0; m < modeled_cols_.size(); ++m) {
    if (ranges[modeled_cols_[m]].has_value()) last = static_cast<int>(m);
  }
  if (last < 0) return 1.0;
  if (stats != nullptr) {
    stats->num_samples += options_.num_samples;
    stats->sampled_columns += last + 1;
  }

  double total_weight = 0;
  for (int s = 0; s < options_.num_samples; ++s) {
    std::vector<int> prefix;
    double weight = 1.0;
    for (int m = 0; m <= last; ++m) {
      std::vector<float> dist = Conditional(m, prefix);
      const auto& range = ranges[modeled_cols_[m]];
      if (range.has_value()) {
        auto overlap =
            binners_[modeled_cols_[m]].Overlap(range->first, range->second);
        double mass = 0;
        std::vector<double> restricted(dist.size(), 0.0);
        for (auto [bin, frac] : overlap) {
          double p = static_cast<double>(dist[bin]) * frac;
          restricted[bin] = p;
          mass += p;
        }
        if (mass <= 0) {
          weight = 0;
          if (stats != nullptr) ++stats->zero_weight_paths;
          break;
        }
        weight *= mass;
        prefix.push_back(static_cast<int>(rng->Weighted(restricted)));
      } else {
        std::vector<double> d(dist.begin(), dist.end());
        prefix.push_back(static_cast<int>(rng->Weighted(d)));
      }
    }
    total_weight += weight;
  }
  return total_weight / options_.num_samples;
}

uint64_t NaruTableModel::SizeBytes() const {
  uint64_t bytes = marginal0_.size() * sizeof(double);
  for (const auto& net : conditionals_) {
    bytes += net->NumParams() * sizeof(float);
  }
  return bytes;
}

uint64_t NaruTableModel::NumParameters() const {
  uint64_t n = marginal0_.size();
  for (const auto& net : conditionals_) n += net->NumParams();
  return n;
}

double NaruEstimator::EstimateImpl(const query::Query& q,
                                   ExplainRecord* rec) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // Progressive sampling is dominated by autoregressive forward passes.
  telemetry::StageTimer::Mark("forward");
  // One sampling stream per query, seeded from the query itself: the
  // estimate is a pure function of (build, query), whatever ran before it
  // and on whichever thread.
  Rng rng(parallel::ChunkSeed(seed_, query::Fingerprint(q)));
  NaruSamplingStats total;
  if (rec != nullptr) {
    ExplainPredicates(q, "progressive_sampling", "ignored_unmodeled",
                      "naru.unmodeled_column_ignored", rec);
  }
  return JoinTables(
      q,
      [&](int t, const ColumnRanges& ranges) {
        return models_[t].Selectivity(ranges, &rng,
                                      rec != nullptr ? &total : nullptr);
      },
      rec,
      [&] {
        rec->AddCounter("sampling_budget",
                        static_cast<double>(total.num_samples));
        rec->AddCounter("zero_weight_paths",
                        static_cast<double>(total.zero_weight_paths));
        rec->AddCounter("sampled_columns",
                        static_cast<double>(total.sampled_columns));
      });
}

void NaruEstimator::DescribeModel(telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "naru";
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  card->epochs = options_.epochs;
  uint64_t params = 0;
  for (const auto& m : models_) params += m.NumParameters();
  card->parameter_count = static_cast<int64_t>(params);
  card->extra.emplace_back("tables", static_cast<double>(models_.size()));
}

}  // namespace ce
}  // namespace lce
