#include "src/util/telemetry/run_manifest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string_view>
#include <thread>
#include <vector>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/model_card.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/query_log.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"
#include "src/util/telemetry/train_log.h"

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

void WriteEnvEntry(JsonWriter* w, const char* name) {
  const char* v = std::getenv(name);
  w->Key(name);
  if (v == nullptr) {
    w->Null();
  } else {
    w->Value(v);
  }
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
  w.Key("env").BeginObject();
  WriteEnvEntry(&w, "LCE_THREADS");
  WriteEnvEntry(&w, "LCE_METRICS");
  WriteEnvEntry(&w, "LCE_TRACE");
  WriteEnvEntry(&w, "LCE_LOG_LEVEL");
  WriteEnvEntry(&w, "LCE_QUERY_LOG");
  WriteEnvEntry(&w, "LCE_TRAIN_LOG");
  WriteEnvEntry(&w, "LCE_DRIFT_WINDOW");
  WriteEnvEntry(&w, "LCE_DRIFT_THRESHOLD");
  WriteEnvEntry(&w, "LCE_BENCH_OUT_DIR");
  WriteEnvEntry(&w, "LCE_BENCH_LATENCY_SAMPLES");
  WriteEnvEntry(&w, "LCE_ORACLE_INDEX");
  WriteEnvEntry(&w, "LCE_BITMAP_CACHE_SIZE");
  WriteEnvEntry(&w, "LCE_SIMD");
  WriteEnvEntry(&w, "LCE_FASTMATH");
  WriteEnvEntry(&w, "LCE_PROFILE");
  WriteEnvEntry(&w, "LCE_FLIGHT_RECORDER");
  WriteEnvEntry(&w, "LCE_FR_QERR_TRIGGER");
  WriteEnvEntry(&w, "LCE_FR_LAT_TRIGGER");
  WriteEnvEntry(&w, "LCE_FR_DRIFT");
  WriteEnvEntry(&w, "LCE_FR_SIGNAL");
  WriteEnvEntry(&w, "LCE_FR_DIR");
  WriteEnvEntry(&w, "LCE_FR_RING");
  WriteEnvEntry(&w, "LCE_FR_MAX_BUNDLES");
  WriteEnvEntry(&w, "LCE_METRICS_SNAPSHOT");
  WriteEnvEntry(&w, "LCE_SERVE_BATCH");
  WriteEnvEntry(&w, "LCE_SERVE_BATCH_US");
  WriteEnvEntry(&w, "LCE_SERVE_MAX_BATCH");
  w.EndObject();
  // Mirrors exec::OracleIndexEnabled()'s env parse (telemetry cannot depend
  // on exec); test-only overrides are not reflected here.
  {
    const char* v = std::getenv("LCE_ORACLE_INDEX");
    w.Key("oracle_index_enabled")
        .Value(v == nullptr || std::string_view(v) != "0");
  }
  // Mirrors simd::SimdEnabled()/FastMathEnabled()'s env parses (telemetry
  // cannot depend on the kernel layer); test-only overrides not reflected.
  {
    const char* v = std::getenv("LCE_SIMD");
    w.Key("simd_enabled").Value(v == nullptr || std::string_view(v) != "0");
    const char* f = std::getenv("LCE_FASTMATH");
    w.Key("fastmath_enabled")
        .Value(f != nullptr && *f != '\0' && std::string_view(f) != "0");
  }
  w.Key("metrics_enabled").Value(MetricsEnabled());
  w.Key("trace_path");
  if (TraceEnabled()) {
    w.Value(TracePath());
  } else {
    w.Null();
  }
  w.Key("profile_path");
  if (ProfileEnabled()) {
    w.Value(ProfilePath());
  } else {
    w.Null();
  }
  w.Key("query_log");
  if (QueryLogEnabled()) {
    w.Value(QueryLogPath());
  } else {
    w.Null();
  }
  w.Key("train_log");
  if (TrainLogEnabled()) {
    w.Value(TrainLogPath());
  } else {
    w.Null();
  }
  // Mirrors eval::LatencySampleCap()'s env parse (telemetry cannot depend on
  // eval): LCE_BENCH_LATENCY_SAMPLES when a positive integer, else 200.
  {
    uint64_t cap = 200;
    const char* v = std::getenv("LCE_BENCH_LATENCY_SAMPLES");
    if (v != nullptr && *v != '\0') {
      char* end = nullptr;
      long n = std::strtol(v, &end, 10);
      if (end != nullptr && *end == '\0' && n > 0) {
        cap = static_cast<uint64_t>(n);
      }
    }
    w.Key("latency_sample_cap").Value(cap);
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
