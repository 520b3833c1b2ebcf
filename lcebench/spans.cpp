#include "lcebench/spans.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/stats.h"
#include "src/util/telemetry/telemetry.h"

namespace lcebench {

int64_t NowNs() { return lce::telemetry::MonotonicNanos(); }

Quantile QuantileOf(const std::vector<double>& values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  out.value = lce::Percentile(values, 100.0 * std::clamp(q, 0.0, 1.0));
  out.beyond = static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [&out](double v) { return v > out.value; }));
  return out;
}

double Median(const std::vector<double>& values) {
  return lce::Percentile(values, 50.0);
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

namespace {

constexpr double kMinUs = 0.05;
constexpr double kBucketRatio = 1.01;
const double kLogRatio = std::log(kBucketRatio);
const size_t kNumBuckets =
    static_cast<size_t>(std::ceil(std::log(1e8 / kMinUs) / kLogRatio)) + 1;

double BucketLow(size_t b) {
  return kMinUs * std::exp(kLogRatio * static_cast<double>(b));
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  size_t b = 0;
  if (us > kMinUs) {
    b = std::min(kNumBuckets - 1,
                 static_cast<size_t>(std::log(us / kMinUs) / kLogRatio));
  }
  ++buckets_[b];
  ++count_;
  sum_ += us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

Quantile LatencyHistogram::QuantileOf(double q) const {
  Quantile out;
  out.samples = count_;
  if (count_ == 0) return out;
  // The same rank rule as QuantileOf on a sample, placed uniformly
  // inside the bucket that holds it.
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t c = buckets_[b];
    if (c == 0 || static_cast<double>(below + c) <= rank) {
      below += c;
      continue;
    }
    const double frac = (rank - static_cast<double>(below) + 0.5) /
                        static_cast<double>(c);
    const double lo = BucketLow(b);
    out.value = lo + (BucketLow(b + 1) - lo) * std::clamp(frac, 0.0, 1.0);
    out.beyond = count_ - below - c;
    return out;
  }
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const int64_t b = std::max(s.start_ns, p.start_ns);
    const int64_t e = std::min(s.end_ns, p.end_ns);
    if (b < e) covered[it->second].emplace_back(b, e);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t run_b = 0, run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) union_ns += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) union_ns += run_e - run_b;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              union_ns;
  }
  return self;
}

void AddSelfTimesByLayer(const std::vector<Span>& spans,
                         std::map<std::string, int64_t>* by_layer) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    (*by_layer)[LayerOf(spans[i].name)] += self[i];
  }
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, uint64_t parent)
    : log_(log) {
  span_.id = log_ != nullptr ? log_->NewId() : 0;
  span_.parent = parent;
  span_.name = std::move(name);
  span_.start_ns = NowNs();
}

double ScopedSpan::End() {
  if (open_) {
    open_ = false;
    span_.end_ns = NowNs();
    if (log_ != nullptr) log_->Add(span_);
  }
  return static_cast<double>(span_.end_ns - span_.start_ns) * 1e-9;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::string out;
  lce::JsonWriter w(&out, lce::JsonWriter::Style::kCompact);
  w.BeginObject().Key("displayTimeUnit").Value("ns").Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("cat").Value(LayerOf(s.name))
        .Key("ph").Value("X")
        .Key("ts").Value(static_cast<double>(s.start_ns) * 1e-3)
        .Key("dur").Value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .Key("pid").Value(1)
        .Key("tid").Value(s.request)
        .Key("args").BeginObject()
        .Key("id").Value(s.id)
        .Key("parent").Value(s.parent)
        .Key("request").Value(s.request)
        .Key("self_us").Value(static_cast<double>(self[i]) * 1e-3)
        .EndObject()
        .EndObject();
  }
  w.EndArray().EndObject();
  return lce::fs::EnsureParentDirs(path).ok() &&
         lce::fs::WriteStringToFile(path, out).ok();
}

}  // namespace lcebench
