#include "src/util/telemetry/train_log.h"

#include <cstdlib>

#include "src/util/json_writer.h"
#include "src/util/knobs.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace telemetry {

namespace {

void WriteOptionalDouble(JsonWriter& w, const char* key, double v) {
  w.Key(key);
  if (v == TrainingEvent::kUnset) {
    w.Null();
  } else {
    w.Value(v);
  }
}

}  // namespace

bool TrainLogEnabled() { return knobs::Bool(knobs::kTrainLog); }

std::string TrainLogPath() { return knobs::String(knobs::kTrainLog); }

void SetTrainLogPathForTesting(const char* path) {
  TrainLog::Global().Flush();
  TrainLog::Global().ResetForTesting();
  knobs::OverrideText(knobs::kTrainLog, path);
}

std::string TrainingEvent::ToJsonLine() const {
  std::string out;
  JsonWriter w(&out, JsonWriter::Style::kCompact);
  w.BeginObject();
  w.Key("model").Value(model);
  w.Key("family").Value(family);
  w.Key("event").Value(event);
  w.Key("index").Value(index);
  WriteOptionalDouble(w, "loss", loss);
  WriteOptionalDouble(w, "grad_norm", grad_norm);
  WriteOptionalDouble(w, "lr", learning_rate);
  w.Key("examples");
  if (examples < 0) {
    w.Null();
  } else {
    w.Value(examples);
  }
  WriteOptionalDouble(w, "wall_s", wall_seconds);
  w.Key("rows_per_sec");
  if (examples >= 0 && wall_seconds > 0.0) {
    w.Value(static_cast<double>(examples) / wall_seconds);
  } else {
    w.Null();
  }
  w.Key("phase");
  if (phase.empty()) {
    w.Null();
  } else {
    w.Value(phase);
  }
  if (!extra.empty()) {
    w.Key("extra").BeginObject();
    for (const auto& [k, v] : extra) w.Key(k).Value(v);
    w.EndObject();
  }
  w.EndObject();
  return out;
}

TrainLog& TrainLog::Global() {
  static TrainLog* log = [] {
    // Tools and examples that never construct a BenchRun still get the tail.
    std::atexit([] { TrainLog::Global().Flush(); });
    return new TrainLog();
  }();
  return *log;
}

void TrainLog::Record(const TrainingEvent& event) {
  if (!TrainLogEnabled()) return;
  sink_.Append(event.ToJsonLine(), TrainLogPath());
}

Status TrainLog::Flush() {
  if (!TrainLogEnabled()) return Status::OK();
  return sink_.Flush(TrainLogPath());
}

uint64_t TrainLog::events_recorded() const { return sink_.lines_appended(); }

void TrainLog::ResetForTesting() { sink_.ResetForTesting(); }

void RecordTrainingEvent(TrainingEvent event) {
  if (!TrainLogEnabled()) return;
  if (event.model.empty()) {
    std::string scope = PhaseScope::Current();
    event.model = scope.empty() ? event.family : scope;
  }
  TrainLog::Global().Record(event);
}

}  // namespace telemetry
}  // namespace lce
