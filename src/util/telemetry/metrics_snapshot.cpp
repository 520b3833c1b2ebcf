#include "src/util/telemetry/metrics_snapshot.h"

#include <algorithm>
#include <charconv>
#include <utility>
#include <vector>

#include "src/util/fs.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace telemetry {

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc()) {
    out->append(buf, p);
  } else {
    out->append("0");
  }
}

void AppendLine(std::string* out, const std::string& name, double v) {
  out->append(name);
  out->push_back(' ');
  AppendNumber(out, v);
  out->push_back('\n');
}

}  // namespace

bool MetricsSnapshotEnabled() { return knobs::Bool(knobs::kMetricsSnapshot); }

std::string MetricsSnapshotPath() {
  return knobs::String(knobs::kMetricsSnapshot);
}

void SetMetricsSnapshotPathForTesting(const char* path) {
  knobs::OverrideText(knobs::kMetricsSnapshot, path);
}

std::string PrometheusName(const std::string& name) {
  std::string out = "lce_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string RenderMetricsSnapshot() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::vector<std::pair<std::string, double>> series;
  for (const auto& [name, value] : reg.CounterValues()) {
    series.emplace_back(PrometheusName(name), static_cast<double>(value));
  }
  for (const auto& [name, value] : reg.GaugeValues()) {
    series.emplace_back(PrometheusName(name), value);
  }
  for (const auto& [name, snap] : reg.HistogramSnapshots()) {
    std::string base = PrometheusName(name);
    series.emplace_back(base + "_count", static_cast<double>(snap.count));
    series.emplace_back(base + "_sum", snap.sum);
    series.emplace_back(base + "_mean", snap.mean);
    series.emplace_back(base + "_p50", snap.p50);
    series.emplace_back(base + "_p95", snap.p95);
    series.emplace_back(base + "_p99", snap.p99);
    series.emplace_back(base + "_p999", snap.p999);
    series.emplace_back(base + "_min", snap.min);
    series.emplace_back(base + "_max", snap.max);
  }
  // Distinct registry names can collide after sanitization ("a.b" / "a/b");
  // a stable sort keeps both lines, in registry order, instead of losing one.
  std::stable_sort(series.begin(), series.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  out.reserve(series.size() * 48 + 64);
  out.append("# lce metrics snapshot (text exposition; counters, gauges, "
             "histogram digests)\n");
  for (const auto& [name, value] : series) AppendLine(&out, name, value);
  return out;
}

Status WriteMetricsSnapshotNow(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("metrics snapshot path is empty");
  }
  Status written = fs::WriteStringToFile(path, RenderMetricsSnapshot());
  if (!written.ok()) {
    MetricsRegistry::Global().counter("telemetry.export_failures").AddAlways(1);
    LCE_LOG(ERROR) << "cannot write metrics snapshot: " << written.ToString();
    return written;
  }
  LCE_LOG(INFO) << "wrote metrics snapshot " << path;
  return Status::OK();
}

void WriteMetricsSnapshotIfEnabled() {
  std::string path = MetricsSnapshotPath();
  if (!path.empty()) WriteMetricsSnapshotNow(path);
}

}  // namespace telemetry
}  // namespace lce
