// Descriptive statistics used throughout the evaluation harness.

#ifndef LCE_UTIL_STATS_H_
#define LCE_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace lce {

/// Summary of a sample: mean, geometric mean, and the percentiles the study
/// reports (50/90/95/99/max).
struct SampleSummary {
  size_t count = 0;
  double mean = 0;
  double geo_mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
  double min = 0;
};

/// Percentile with linear interpolation; `p` in [0, 100]. Sorts a copy.
double Percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Geometric mean; requires strictly positive values (0 for empty sample).
double GeometricMean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 when count < 2.
double StdDev(const std::vector<double>& values);

/// One-shot summary of a sample.
SampleSummary Summarize(const std::vector<double>& values);

/// Jensen–Shannon divergence between two discrete distributions given as
/// (possibly unnormalized) non-negative weight vectors of equal length.
/// Returned in nats; 0 means identical, log(2) is the maximum.
double JensenShannonDivergence(const std::vector<double>& p,
                               const std::vector<double>& q);

/// Pearson correlation coefficient of two equal-length samples.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace lce

#endif  // LCE_UTIL_STATS_H_
