#include "src/util/telemetry/run_manifest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/model_card.h"
#include "src/util/telemetry/telemetry.h"

#ifndef LCE_GIT_COMMIT
#define LCE_GIT_COMMIT "unknown"
#endif

namespace lce {
namespace telemetry {

namespace {

std::string UtcTimestamp() {
  std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

// Digests phase.<key>.ns / phase.<key>.calls counter pairs into a
// [{name, calls, total_ms, mean_us}] array ordered by descending total time.
void WritePhaseBreakdown(JsonWriter* w) {
  struct PhaseRow {
    std::string name;
    uint64_t ns = 0;
    uint64_t calls = 0;
  };
  std::vector<PhaseRow> rows;
  constexpr std::string_view kPrefix = "phase.";
  for (const auto& [name, value] : MetricsRegistry::Global().CounterValues()) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    std::string_view rest(name);
    rest.remove_prefix(kPrefix.size());
    bool is_ns = false;
    if (rest.size() > 3 && rest.substr(rest.size() - 3) == ".ns") {
      is_ns = true;
      rest.remove_suffix(3);
    } else if (rest.size() > 6 && rest.substr(rest.size() - 6) == ".calls") {
      rest.remove_suffix(6);
    } else {
      continue;
    }
    PhaseRow* row = nullptr;
    for (PhaseRow& r : rows) {
      if (r.name == rest) {
        row = &r;
        break;
      }
    }
    if (row == nullptr) {
      rows.push_back({std::string(rest), 0, 0});
      row = &rows.back();
    }
    (is_ns ? row->ns : row->calls) = value;
  }
  std::sort(rows.begin(), rows.end(),
            [](const PhaseRow& a, const PhaseRow& b) { return a.ns > b.ns; });
  w->BeginArray();
  for (const PhaseRow& r : rows) {
    w->BeginObject()
        .Key("name").Value(r.name)
        .Key("calls").Value(r.calls)
        .Key("total_ms").Value(static_cast<double>(r.ns) / 1e6)
        .Key("mean_us").Value(r.calls > 0 ? static_cast<double>(r.ns) /
                                                (1e3 * static_cast<double>(r.calls))
                                          : 0.0)
        .EndObject();
  }
  w->EndArray();
}

}  // namespace

const char* BuildGitCommit() { return LCE_GIT_COMMIT; }

std::string RunManifestJson(const std::string& bench_name,
                            double wall_seconds) {
  // Refresh mem.* gauges (when LCE_METRICS is on) so the metrics snapshot
  // below carries the peak RSS bench_diff watches.
  MemoryTracker::Global().SamplePeakRss();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("bench").Value(bench_name);
  w.Key("git_commit").Value(BuildGitCommit());
  w.Key("timestamp_utc").Value(UtcTimestamp());
  w.Key("wall_seconds").Value(wall_seconds);
  w.Key("threads")
      .BeginObject()
      .Key("configured").Value(parallel::ThreadCount())
      .Key("hardware_concurrency")
      .Value(uint64_t{std::thread::hardware_concurrency()})
      .EndObject();
  w.Key("config");
  knobs::WriteConfigJson(&w);
  w.Key("oracle_index_enabled").Value(knobs::Bool(knobs::kOracleIndex));
  w.Key("metrics_enabled").Value(MetricsEnabled());
  // The sink paths again at the top level, where readers older than
  // `config` look for them.
  for (auto [key, knob] : {std::pair{"trace_path", knobs::kTrace},
                           {"profile_path", knobs::kProfile},
                           {"query_log", knobs::kQueryLog},
                           {"train_log", knobs::kTrainLog}}) {
    w.Key(key);
    if (std::string path = knobs::String(knob); !path.empty()) {
      w.Value(path);
    } else {
      w.Null();
    }
  }
  w.Key("model_cards").BeginArray();
  for (const ModelCard& card : ModelCardRegistry::Global().Snapshot()) {
    card.WriteJson(w);
  }
  w.EndArray();
  w.Key("memory");
  MemoryTracker::Global().WriteJson(w);
  w.Key("drift_alerts").BeginArray();
  for (const DriftAlert& a : AllDriftAlertHistory()) {
    w.BeginObject()
        .Key("monitor").Value(a.monitor)
        .Key("observation").Value(a.observation)
        .Key("p95").Value(a.p95)
        .Key("threshold").Value(a.threshold)
        .EndObject();
  }
  w.EndArray();
  w.Key("flight_recorder");
  FlightRecorder::Global().WriteJson(&w);
  w.Key("phases");
  WritePhaseBreakdown(&w);
  w.Key("metrics");
  MetricsRegistry::Global().WriteJson(&w);
  w.EndObject();
  return out;
}

Status WriteRunManifest(const std::string& path, const std::string& bench_name,
                        double wall_seconds) {
  std::string json = RunManifestJson(bench_name, wall_seconds);
  json.push_back('\n');
  Status written = fs::WriteStringToFile(path, json);
  if (!written.ok()) {
    MetricsRegistry::Global().counter("telemetry.export_failures").AddAlways(1);
    LCE_LOG(ERROR) << "cannot write run manifest: " << written.ToString();
    return written;
  }
  LCE_LOG(INFO) << "wrote run manifest " << path;
  return Status::OK();
}

}  // namespace telemetry
}  // namespace lce
