// Buffered JSONL file appender shared by the env-gated line sinks (query
// log, training log).
//
// A JsonlSink accumulates newline-terminated JSON lines in memory and writes
// them in 64 KiB batches; parent directories are created on the first flush
// and the file is truncated once per sink lifetime. Once a write fails the
// sink latches the error and drops further lines (logged once, with the
// path), so a full disk never turns into a crash loop inside a bench.
//
// Owners (the flight recorder's query log, TrainLog) keep their own env
// gating and path resolution; the sink only manages buffering and file I/O.
// Thread-safe.

#ifndef LCE_UTIL_TELEMETRY_JSONL_SINK_H_
#define LCE_UTIL_TELEMETRY_JSONL_SINK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace lce {
namespace telemetry {

class JsonlSink {
 public:
  /// `what` names the sink in error logs ("query log", "training log").
  explicit JsonlSink(std::string what) : what_(std::move(what)) {}
  ~JsonlSink();
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Buffers one JSON line (newline appended here); flushes to `path` when
  /// the buffer crosses the batch threshold. Dropped after a write failure.
  void Append(std::string_view json_line, const std::string& path);

  /// Writes everything buffered so far to `path`, creating parent
  /// directories on the first write. Returns the first error encountered;
  /// once a write fails the sink stays disabled for its lifetime.
  Status Flush(const std::string& path);

  /// Lines appended since construction (or the last reset).
  uint64_t lines_appended() const;

  /// Drops buffered data, closes the file, and zeroes counters (tests).
  void ResetForTesting();

 private:
  Status FlushLocked(const std::string& path);

  const std::string what_;
  mutable std::mutex mu_;
  std::string buffer_;
  uint64_t lines_ = 0;
  std::string open_path_;   // path the current file handle points at
  void* file_ = nullptr;    // std::FILE*, opaque to keep <cstdio> out
  bool failed_ = false;     // a write failed; stop trying, keep the Status
  Status first_error_;
};

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_JSONL_SINK_H_
