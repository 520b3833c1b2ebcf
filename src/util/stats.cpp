#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lce {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  LCE_CHECK(p >= 0 && p <= 100);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    LCE_CHECK_MSG(v > 0, "GeometricMean needs positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0;
  double mean = Mean(values);
  double ss = 0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

SampleSummary Summarize(const std::vector<double>& values) {
  SampleSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = Mean(values);
  bool all_positive = true;
  for (double v : values) {
    if (v <= 0) {
      all_positive = false;
      break;
    }
  }
  s.geo_mean = all_positive ? GeometricMean(values) : 0;
  s.p50 = Percentile(values, 50);
  s.p90 = Percentile(values, 90);
  s.p95 = Percentile(values, 95);
  s.p99 = Percentile(values, 99);
  s.max = *std::max_element(values.begin(), values.end());
  s.min = *std::min_element(values.begin(), values.end());
  return s;
}

namespace {

// KL(p || m) restricted to the support of p; inputs already normalized.
double KlTerm(const std::vector<double>& p, const std::vector<double>& m) {
  double kl = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0 && m[i] > 0) kl += p[i] * std::log(p[i] / m[i]);
  }
  return kl;
}

std::vector<double> Normalize(const std::vector<double>& w) {
  double total = 0;
  for (double v : w) {
    LCE_CHECK_MSG(v >= 0, "distribution weights must be non-negative");
    total += v;
  }
  LCE_CHECK_MSG(total > 0, "distribution must have positive mass");
  std::vector<double> out(w.size());
  for (size_t i = 0; i < w.size(); ++i) out[i] = w[i] / total;
  return out;
}

}  // namespace

double JensenShannonDivergence(const std::vector<double>& p,
                               const std::vector<double>& q) {
  LCE_CHECK(p.size() == q.size());
  std::vector<double> pn = Normalize(p);
  std::vector<double> qn = Normalize(q);
  std::vector<double> m(pn.size());
  for (size_t i = 0; i < m.size(); ++i) m[i] = 0.5 * (pn[i] + qn[i]);
  return 0.5 * KlTerm(pn, m) + 0.5 * KlTerm(qn, m);
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  LCE_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0;
  double mx = Mean(x), my = Mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace lce
