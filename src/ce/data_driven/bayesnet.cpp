#include "src/ce/data_driven/bayesnet.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/telemetry/stage_timer.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/train_log.h"

namespace lce {
namespace ce {

namespace {

// Mutual information (nats) of two binned columns from joint counts.
double MutualInformation(const std::vector<int>& x, const std::vector<int>& y,
                         int bx, int by) {
  LCE_CHECK(x.size() == y.size() && !x.empty());
  std::vector<double> joint(static_cast<size_t>(bx) * by, 0.0);
  std::vector<double> px(bx, 0.0), py(by, 0.0);
  double n = static_cast<double>(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    joint[static_cast<size_t>(x[i]) * by + y[i]] += 1.0;
    px[x[i]] += 1.0;
    py[y[i]] += 1.0;
  }
  double mi = 0;
  for (int a = 0; a < bx; ++a) {
    for (int b = 0; b < by; ++b) {
      double pxy = joint[static_cast<size_t>(a) * by + b] / n;
      if (pxy <= 0) continue;
      mi += pxy * std::log(pxy / ((px[a] / n) * (py[b] / n)));
    }
  }
  return std::max(0.0, mi);
}

}  // namespace

void BayesNetTableModel::Fit(const storage::Table& table,
                             const Options& options, Rng* rng) {
  options_ = options;
  binners_ = FitBinners(table, options.max_bins);
  modeled_cols_.clear();
  model_index_of_col_.assign(table.num_columns(), -1);
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!table.schema().columns[c].is_key) {
      model_index_of_col_[c] = static_cast<int>(modeled_cols_.size());
      modeled_cols_.push_back(c);
    }
  }
  size_t d = modeled_cols_.size();
  parent_.assign(d, -1);
  children_.assign(d, {});
  prior_.assign(d, {});
  cpt_.assign(d, {});
  root_ = d > 0 ? 0 : -1;
  if (d == 0) return;

  // Sampled binned matrix.
  uint64_t n = table.num_rows();
  uint64_t take = std::min(options.max_training_rows, n);
  std::vector<std::vector<int>> cols(d, std::vector<int>(take));
  const bool train_log = telemetry::TrainLogEnabled();
  auto emit_phase = [&](const char* name, int64_t index, int64_t start_ns,
                        double extra_value, const char* extra_key) {
    telemetry::TrainingEvent ev;
    ev.family = "bayesnet";
    ev.event = "phase";
    ev.phase = name;
    ev.index = index;
    ev.examples = static_cast<int64_t>(take);
    ev.wall_seconds =
        static_cast<double>(telemetry::MonotonicNanos() - start_ns) / 1e9;
    if (extra_key != nullptr) ev.extra.emplace_back(extra_key, extra_value);
    telemetry::RecordTrainingEvent(std::move(ev));
  };
  {
    telemetry::ScopedPhase phase("bayesnet/sample_bin");
    int64_t phase_start = train_log ? telemetry::MonotonicNanos() : 0;
    std::vector<uint64_t> ids(n);
    for (uint64_t i = 0; i < n; ++i) ids[i] = i;
    for (uint64_t i = 0; i < take; ++i) {
      uint64_t j = i + static_cast<uint64_t>(
                           rng->UniformInt(0, static_cast<int64_t>(n - i) - 1));
      std::swap(ids[i], ids[j]);
    }
    for (size_t m = 0; m < d; ++m) {
      const auto& col = table.column(modeled_cols_[m]);
      for (uint64_t i = 0; i < take; ++i) {
        cols[m][i] = binners_[modeled_cols_[m]].BinOf(col[ids[i]]);
      }
    }
    if (train_log) {
      emit_phase("sample_bin", 0, phase_start, static_cast<double>(d),
                 "columns");
    }
  }
  auto bins_of = [&](size_t m) {
    return binners_[modeled_cols_[m]].num_bins();
  };

  // Chow–Liu: Prim's maximum spanning tree on pairwise MI.
  if (d > 1) {
    telemetry::ScopedPhase phase("bayesnet/structure");
    int64_t phase_start = train_log ? telemetry::MonotonicNanos() : 0;
    std::vector<bool> in_tree(d, false);
    std::vector<double> best_mi(d, -1.0);
    std::vector<int> best_parent(d, -1);
    in_tree[0] = true;
    for (size_t m = 1; m < d; ++m) {
      best_mi[m] = MutualInformation(cols[0], cols[m], bins_of(0), bins_of(m));
      best_parent[m] = 0;
    }
    for (size_t added = 1; added < d; ++added) {
      int pick = -1;
      double best = -1;
      for (size_t m = 0; m < d; ++m) {
        if (!in_tree[m] && best_mi[m] > best) {
          best = best_mi[m];
          pick = static_cast<int>(m);
        }
      }
      LCE_CHECK(pick >= 0);
      in_tree[pick] = true;
      parent_[pick] = best_parent[pick];
      children_[best_parent[pick]].push_back(pick);
      for (size_t m = 0; m < d; ++m) {
        if (in_tree[m]) continue;
        double mi = MutualInformation(cols[pick], cols[m], bins_of(pick),
                                      bins_of(m));
        if (mi > best_mi[m]) {
          best_mi[m] = mi;
          best_parent[m] = pick;
        }
      }
    }
    if (train_log) {
      emit_phase("structure", 1, phase_start, static_cast<double>(d - 1),
                 "edges");
    }
  }

  // Parameters: root prior and per-edge CPTs (Laplace-smoothed).
  telemetry::ScopedPhase phase("bayesnet/cpt");
  int64_t cpt_start = train_log ? telemetry::MonotonicNanos() : 0;
  prior_[root_].assign(bins_of(root_), 1e-6);
  for (uint64_t i = 0; i < take; ++i) prior_[root_][cols[root_][i]] += 1.0;
  double total = 0;
  for (double v : prior_[root_]) total += v;
  for (double& v : prior_[root_]) v /= total;

  for (size_t m = 0; m < d; ++m) {
    if (parent_[m] < 0) continue;
    int pb = bins_of(parent_[m]);
    int cb = bins_of(m);
    cpt_[m].assign(pb, std::vector<double>(cb, 1e-6));
    for (uint64_t i = 0; i < take; ++i) {
      cpt_[m][cols[parent_[m]][i]][cols[m][i]] += 1.0;
    }
    for (int p = 0; p < pb; ++p) {
      double row_total = 0;
      for (double v : cpt_[m][p]) row_total += v;
      for (double& v : cpt_[m][p]) v /= row_total;
    }
  }
  if (train_log) {
    double cells = 0;
    for (const auto& t : cpt_) {
      for (const auto& row : t) cells += static_cast<double>(row.size());
    }
    emit_phase("cpt", 2, cpt_start, cells, "cpt_cells");
  }
}

std::vector<double> BayesNetTableModel::Message(
    int node, const std::vector<std::vector<double>>& indicators) const {
  int bins = binners_[modeled_cols_[node]].num_bins();
  std::vector<double> msg(bins);
  for (int b = 0; b < bins; ++b) msg[b] = indicators[node][b];
  for (int child : children_[node]) {
    std::vector<double> child_msg = Message(child, indicators);
    for (int b = 0; b < bins; ++b) {
      double s = 0;
      for (size_t cb = 0; cb < child_msg.size(); ++cb) {
        s += cpt_[child][b][cb] * child_msg[cb];
      }
      msg[b] *= s;
    }
  }
  return msg;
}

double BayesNetTableModel::Selectivity(const ColumnRanges& ranges) const {
  if (root_ < 0) return 1.0;
  double uniform_factor = 1.0;
  size_t d = modeled_cols_.size();
  std::vector<std::vector<double>> indicators(d);
  for (size_t m = 0; m < d; ++m) {
    indicators[m].assign(binners_[modeled_cols_[m]].num_bins(), 1.0);
  }
  for (size_t c = 0; c < ranges.size(); ++c) {
    if (!ranges[c].has_value()) continue;
    int m = model_index_of_col_[c];
    if (m < 0) {
      auto ov = binners_[c].Overlap(ranges[c]->first, ranges[c]->second);
      double frac = 0;
      for (auto [bin, f] : ov) frac += f;
      uniform_factor *= std::min(1.0, frac / binners_[c].num_bins());
      continue;
    }
    std::fill(indicators[m].begin(), indicators[m].end(), 0.0);
    for (auto [bin, f] :
         binners_[c].Overlap(ranges[c]->first, ranges[c]->second)) {
      indicators[m][bin] = f;
    }
  }
  std::vector<double> root_msg = Message(root_, indicators);
  double p = 0;
  for (size_t b = 0; b < root_msg.size(); ++b) {
    p += prior_[root_][b] * root_msg[b];
  }
  return std::clamp(p * uniform_factor, 0.0, 1.0);
}

uint64_t BayesNetTableModel::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& p : prior_) bytes += p.size() * sizeof(double);
  for (const auto& table : cpt_) {
    for (const auto& row : table) bytes += row.size() * sizeof(double);
  }
  return bytes;
}

uint64_t BayesNetTableModel::NumParameters() const {
  uint64_t n = 0;
  for (const auto& p : prior_) n += p.size();
  for (const auto& table : cpt_) {
    for (const auto& row : table) n += row.size();
  }
  return n;
}

double BayesNetEstimator::EstimateImpl(const query::Query& q,
                                       ExplainRecord* rec) const {
  LCE_CHECK_MSG(schema_ != nullptr, "Build() before EstimateCardinality()");
  // Message passing over per-table networks plus the join formula.
  telemetry::StageTimer::Mark("traverse");
  int modeled = 0;
  if (rec != nullptr) {
    modeled = ExplainPredicates(q, "bayesnet", "uniform_fallback",
                                "bayesnet.unmodeled_column_uniform", rec);
  }
  return JoinTables(
      q,
      [&](int t, const ColumnRanges& ranges) {
        return models_[t].Selectivity(ranges);
      },
      rec,
      [&] {
        int unmodeled = static_cast<int>(q.predicates.size()) - modeled;
        rec->AddCounter("modeled_predicates", static_cast<double>(modeled));
        rec->AddCounter("unmodeled_predicates",
                        static_cast<double>(unmodeled));
      });
}

void BayesNetEstimator::DescribeModel(telemetry::ModelCard* card) const {
  card->model = Name();
  card->family = "bayesnet";
  card->footprint_bytes = static_cast<int64_t>(FootprintBytes());
  card->train_examples = train_examples_;
  uint64_t params = 0;
  for (const auto& m : models_) params += m.NumParameters();
  card->parameter_count = static_cast<int64_t>(params);
  card->extra.emplace_back("tables", static_cast<double>(models_.size()));
}

}  // namespace ce
}  // namespace lce
