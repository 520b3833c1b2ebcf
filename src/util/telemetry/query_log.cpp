#include "src/util/telemetry/query_log.h"

#include <cstdlib>

#include "src/util/knobs.h"

namespace lce {
namespace telemetry {

bool QueryLogEnabled() { return knobs::Bool(knobs::kQueryLog); }

std::string QueryLogPath() { return knobs::String(knobs::kQueryLog); }

void SetQueryLogPathForTesting(const char* path) {
  QueryLog::Global().Flush();
  QueryLog::Global().ResetForTesting();
  knobs::OverrideText(knobs::kQueryLog, path);
}

QueryLog& QueryLog::Global() {
  static QueryLog* log = [] {
    // Tools and examples that never construct a BenchRun still get the tail.
    std::atexit([] { QueryLog::Global().Flush(); });
    return new QueryLog();
  }();
  return *log;
}

void QueryLog::Append(std::string_view json_line) {
  if (!QueryLogEnabled()) return;
  sink_.Append(json_line, QueryLogPath());
}

Status QueryLog::Flush() {
  if (!QueryLogEnabled()) return Status::OK();
  return sink_.Flush(QueryLogPath());
}

uint64_t QueryLog::lines_appended() const { return sink_.lines_appended(); }

void QueryLog::ResetForTesting() { sink_.ResetForTesting(); }

}  // namespace telemetry
}  // namespace lce
