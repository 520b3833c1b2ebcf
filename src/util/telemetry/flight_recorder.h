// Always-on flight recorder: a bounded, lock-free ring of full-fidelity
// per-query forensic records, plus triggered postmortem bundles, plus the
// LCE_QUERY_LOG file that streams every record it receives.
//
// The aggregate telemetry layers (metrics, traces, stage histograms) answer
// "how much" and "how fast" across a run; they cannot reconstruct *why one
// query* returned a 10^4 q-error after the fact. The flight recorder is the
// black box between the two: every measured estimate, every accuracy-scored
// query, and every opted-in ground-truth oracle call appends one fixed-size
// ForensicRecord — estimator, query IR + hash, per-predicate selectivity
// attribution, per-stage micros from the StageTimer, estimate/truth/q-error,
// latency, span context — into a process-wide ring of the last N records.
//
// Producers never allocate: a record append is one fetch_add to draw a seq,
// one compare-exchange to claim its slot (producers a lap apart take turns)
// and a seqlock-published struct store. When the ring is full the newest
// record overwrites the *oldest* — the recent past is exactly what a
// postmortem needs.
// Readers detect torn slots by re-checking the slot sequence and skip them.
//
// Query log (LCE_QUERY_LOG=<path>): a streaming tail of the same records.
// Each appended record is also written to the file as the line ring.jsonl
// holds for it (FormatForensicRecord), through a buffered JsonlSink that
// flushes at exit. The log and the ring gate independently: with the
// recorder off and the log on, records still get a seq and a line.
//
// On a trigger the ring is snapshotted into a versioned bundle directory
// (`<root>/postmortem/<utc-ts>-<trigger>/`) together with a metrics-registry
// dump, counter deltas since the previous bundle, and — when span recording
// is on — the profiler call tree. Triggers:
//
//   qerr     a record's q-error crosses LCE_FR_QERR_TRIGGER
//   latency  a record's latency crosses LCE_FR_LAT_TRIGGER x the rolling
//            p99 (WindowedQuantileSketch over the last kLatencyWindow
//            recorded latencies, armed once the window fills)
//   drift    a drift monitor fires an alert edge (LCE_FR_DRIFT=1)
//   signal   a fatal signal / SIGTERM arrives (LCE_FR_SIGNAL=1); the
//            handler is async-signal-safe — it formats records with its own
//            integer/double writers and uses only mkdir/open/write
//   manual   TriggerManualBundle() (tests, tools)
//
// Recording defaults ON (LCE_FLIGHT_RECORDER=0 disables) and is cheap
// enough to leave on under the repo's 5% end-to-end telemetry bar
// (bench_telemetry_overhead gates it); triggers are individually opt-in via
// their env knobs so no run grows bundle directories unasked. Trigger
// firings count into `telemetry.fr.trigger.<kind>`; bundle paths land in
// the run manifest's `flight_recorder` section.
//
// Layering: like the rest of src/util/telemetry this header knows nothing
// of query IR or estimators — ce::MakeForensicRecord (src/ce/explain.h)
// copies a query and its diagnostics into the POD record.

#ifndef LCE_UTIL_TELEMETRY_FLIGHT_RECORDER_H_
#define LCE_UTIL_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace lce {

class JsonWriter;

namespace telemetry {

/// True when the recorder accepts records: LCE_FLIGHT_RECORDER on (the
/// default), or a test override. A relaxed load; safe on hot paths.
bool FlightRecorderEnabled();

/// Overrides LCE_FLIGHT_RECORDER (tests). on < 0 restores the env value.
void SetFlightRecorderEnabledForTesting(int on);

/// True when the query log is on (LCE_QUERY_LOG set, or a test override).
bool QueryLogEnabled();

/// The current query-log path ("" when disabled).
std::string QueryLogPath();

/// Overrides the query-log destination (tests, A/B benches). Empty string
/// disables; nullptr restores the LCE_QUERY_LOG-derived value. Flushes and
/// closes the open log first so tests see complete files.
void SetQueryLogPathForTesting(const char* path);

/// Writes the query log's buffered lines to QueryLogPath(), creating parent
/// directories on the first write. An exit hook calls it too, so tools that
/// never flush still get the tail. Once a write fails the log stays off for
/// the process (logged once, with the path).
Status FlushQueryLog();

/// Query-log lines appended since start or the last path override (tests).
uint64_t QueryLogLines();

/// True when FlightRecorder::Append keeps a record anywhere: the ring or
/// the query log. Producers build records only then.
bool QueryRecordsWanted();

/// The q-error bundle trigger threshold: LCE_FR_QERR_TRIGGER, 0 when
/// disabled (the default). Exposed so the evaluation harness
/// can enrich offending queries with full diagnostics before the trigger
/// record is appended.
double QerrTriggerThreshold();

inline constexpr int kFrMaxPredicates = 6;
inline constexpr int kFrMaxStages = 6;
inline constexpr int kFrMaxTables = 8;
inline constexpr int kFrNameLen = 24;      // estimator / scope names
inline constexpr int kFrStageNameLen = 16; // stage names ("encode", ...)
inline constexpr int kFrSiteLen = 40;      // first fallback site

/// One predicate of the recorded query: IR plus the estimator's attributed
/// selectivity (< 0 when the estimator models predicates jointly, or when
/// the record was captured without diagnostics).
struct ForensicPredicate {
  int16_t table = 0;
  int16_t column = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  double selectivity = -1.0;
};

/// One closed StageTimer stage of the recorded call (per-item micros).
struct ForensicStage {
  char name[kFrStageNameLen] = {};
  double micros = 0;
};

/// A fixed-size POD forensic record; ~600 bytes, no heap anywhere.
/// String fields are NUL-terminated, sanitized at copy time (SetFrName) so
/// the async-signal-safe formatter can emit them without JSON escaping.
struct ForensicRecord {
  uint64_t seq = 0;       // assigned by Append
  int64_t ts_ns = 0;      // MonotonicNanos; assigned by Append when 0
  uint64_t query_hash = 0;  // query::Fingerprint of the whole IR
  char kind = 'e';        // 'e' estimator estimate | 'x' exact oracle
  char estimator[kFrNameLen] = {};
  char scope[kFrNameLen] = {};  // PhaseScope::Current() at record time
  double estimate = 0;
  double truth = -1;      // < 0 = unknown
  double qerror = -1;     // < 0 = unknown
  double latency_us = -1; // < 0 = not measured
  uint16_t num_tables = 0;
  uint16_t num_joins = 0;
  uint16_t num_predicates = 0;  // in the query (preds[] may hold fewer)
  uint16_t num_fallbacks = 0;
  char fallback_site[kFrSiteLen] = {};  // first fallback site, if any
  uint8_t tables_recorded = 0;
  uint8_t preds_recorded = 0;
  uint8_t stages_recorded = 0;
  int16_t tables[kFrMaxTables] = {};
  ForensicPredicate preds[kFrMaxPredicates];
  ForensicStage stages[kFrMaxStages];
};

/// Copies `src` into a fixed record field, truncating to cap-1 and replacing
/// JSON-hostile bytes (quotes, backslashes, control chars) with '_' so the
/// signal-path formatter needs no escaping.
void SetFrName(char* dst, size_t cap, std::string_view src);

/// The one per-query line writer: writes `rec` as a compact JSON object (no
/// newline) into `buf` and returns the bytes written, truncating at `cap`.
/// ring.jsonl, meta.json's offending record, the query log and the signal
/// handler all use it. Async-signal-safe: local integer/double writers
/// only (doubles to 15 significant digits; non-finite values as null).
size_t FormatForensicRecord(const ForensicRecord& rec, char* buf, size_t cap);

/// Appends FormatForensicRecord's bytes for `rec` to `out`.
void AppendRecordJson(const ForensicRecord& rec, std::string* out);

namespace internal {
/// Per-thread stage capture, fed by StageTimer while QueryRecordsWanted():
/// a top-level timer resets the thread's samples, each closed stage appends
/// one (name, per-item micros) pair up to kFrMaxStages.
void ResetThreadStageSamples();
void NoteThreadStageSample(const char* stage, double micros);
}  // namespace internal

/// Copies the stage samples captured on this thread since the last top-level
/// StageTimer activation into `rec->stages` (non-consuming). Callers invoke
/// this right after the estimate call whose stages they want.
void FillStagesFromThread(ForensicRecord* rec);

/// One written bundle, for the run manifest.
struct BundleInfo {
  std::string path;
  std::string trigger;
  uint64_t seq = 0;  // offending record's seq (0 for drift/signal/manual)
};

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Ring capacity in records (512).
  size_t RingSlots() const;

  /// Appends one record (no-op while the recorder and the query log are
  /// both off). Fills seq and ts_ns; while the recorder is on, stores the
  /// record wait-free and — when `trigger_eligible` — checks the q-error and
  /// latency triggers against it; while the query log is on, writes its
  /// line. Callers appending low-fidelity context records (the accuracy
  /// scan, which separately appends an enriched record for offending
  /// queries) pass trigger_eligible=false so the bundle's offending record
  /// is always the full-fidelity one. Thread-safe; returns the assigned seq
  /// (0 when both are off).
  uint64_t Append(ForensicRecord rec, bool trigger_eligible = true);

  /// Records appended so far (process-wide): the last seq handed out.
  uint64_t RecordCount() const;

  /// Consistent snapshot of the ring, oldest first. Torn slots (overwritten
  /// mid-read) are skipped.
  std::vector<ForensicRecord> SnapshotRing() const;

  /// Drift-alert trigger edge (called by DriftMonitor). Writes a bundle when
  /// the recorder and LCE_FR_DRIFT are both on.
  void TriggerDriftAlert(const std::string& monitor, double window_p95,
                         double threshold);

  /// Writes a bundle unconditionally (subject to the max-bundles cap).
  /// `detail` lands in meta.json. Tools and tests.
  Status TriggerManualBundle(const std::string& detail);

  /// Bundles written so far (manifest section).
  std::vector<BundleInfo> Bundles() const;

  /// Writes the manifest's `flight_recorder` object value into `w`.
  void WriteJson(JsonWriter* w) const;

  /// Installs the fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
  /// SIGILL/SIGTERM) that snapshot the ring into a bundle before re-raising.
  /// Called automatically on the first Append when LCE_FR_SIGNAL is set
  /// non-"0"; idempotent.
  void InstallSignalHandlers();

  /// Test hooks. Root/threshold/cap overrides pass nullptr or a negative
  /// value to restore the env-derived value (the cap: 8 bundles);
  /// ResetForTesting drops ring contents, bundle list, and the latency
  /// sketch (the ring allocation itself persists).
  void SetBundleRootForTesting(const char* dir);
  void SetQerrTriggerForTesting(double threshold_or_negative);
  void SetLatencyTriggerForTesting(double factor_or_negative);
  void SetDriftTriggerForTesting(int on);
  void SetMaxBundlesForTesting(int n);
  void ResetForTesting();

  /// Rolling latency window backing the latency trigger.
  static constexpr size_t kLatencyWindow = 256;
  /// Minimum records between two bundles of the same trigger kind (qerr /
  /// latency), so one bad estimator doesn't burn the bundle budget on its
  /// first handful of queries.
  static constexpr uint64_t kSameKindCooldownRecords = 64;

 private:
  FlightRecorder();
  Status MaybeTriggerBundle(int kind, const char* detail,
                            const ForensicRecord* offending);
  Status WriteBundleLocked(int kind, const char* detail,
                           const ForensicRecord* offending);
  struct Impl;
  Impl* impl_;  // leaked; the signal handler may outlive static destructors
};

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_FLIGHT_RECORDER_H_
