#include "src/util/telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <thread>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/jsonl_sink.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/run_manifest.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace telemetry {

namespace {

// --- knobs ----------------------------------------------------------------

// Ring capacity in records (a power of two) and the per-process bundle cap.
constexpr size_t kRingSlots = 512;
constexpr int kMaxBundles = 8;

double LatencyTriggerFactor() { return knobs::Number(knobs::kFrLatTrigger); }

bool DriftTriggerEnabled() { return knobs::Bool(knobs::kFrDrift); }

std::string BundleRoot() {
  std::string dir = knobs::String(knobs::kFrDir);
  return !dir.empty() ? dir : knobs::String(knobs::kBenchOutDir) + "/postmortem";
}

// --- async-signal-safe formatting ----------------------------------------
//
// The signal path cannot use snprintf/ostream/std::string (allocation,
// locale locks). These writers cover everything a ForensicRecord needs:
// decimals, a 15-significant-digit double, and lowercase hex.

struct Buf {
  char* p;
  char* end;

  void Put(char c) {
    if (p < end) *p++ = c;
  }
  void Str(const char* s) {
    while (*s != '\0') Put(*s++);
  }
  void U64(uint64_t v) {
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Put(tmp[--n]);
  }
  void I64(int64_t v) {
    uint64_t u = static_cast<uint64_t>(v);
    if (v < 0) {
      Put('-');
      u = ~u + 1;
    }
    U64(u);
  }
  void Hex64(uint64_t v) {
    static const char* digits = "0123456789abcdef";
    char tmp[16];
    int n = 0;
    do {
      tmp[n++] = digits[v & 0xF];
      v >>= 4;
    } while (v != 0);
    while (n > 0) Put(tmp[--n]);
  }
  // Decimal with 15 significant digits (the last may be off by one), fixed
  // notation inside [1e-4, 1e15) and e-notation outside. Non-finite values
  // emit null (JSON has no NaN/Inf). The digits come from one scaling of v
  // by exact powers of ten, so they do not drift with the exponent.
  void Dbl(double v) {
    if (!__builtin_isfinite(v)) {
      Str("null");
      return;
    }
    if (v < 0) {
      Put('-');
      v = -v;
    }
    if (v == 0) {
      Put('0');
      return;
    }
    int exp10 = 0;  // floor(log10(v)), possibly off by one at a boundary
    for (double m = v; m >= 10; m /= 10) ++exp10;
    for (double m = v; m < 1; m *= 10) --exp10;
    uint64_t digits = Digits15(v, exp10);
    if (digits < kMinDigits15) digits = Digits15(v, --exp10);
    if (digits >= 10 * kMinDigits15) digits = Digits15(v, ++exp10);
    // Rounding must not carry the largest doubles past DBL_MAX
    // (1.79769313486231570e308): a reader would see an overflow.
    if (exp10 == 308) digits = std::min<uint64_t>(digits, 179769313486231ull);
    char d[15];
    for (int i = 14; i >= 0; --i) {
      d[i] = static_cast<char>('0' + digits % 10);
      digits /= 10;
    }
    int nd = 15;
    while (nd > 1 && d[nd - 1] == '0') --nd;
    if (exp10 < -4 || exp10 >= 15) {
      Put(d[0]);
      if (nd > 1) Put('.');
      for (int i = 1; i < nd; ++i) Put(d[i]);
      Put('e');
      I64(exp10);
    } else if (exp10 >= 0) {
      for (int i = 0; i <= exp10; ++i) Put(d[i]);
      if (nd > exp10 + 1) Put('.');
      for (int i = exp10 + 1; i < nd; ++i) Put(d[i]);
    } else {
      Str("0.");
      for (int i = -1; i > exp10; --i) Put('0');
      for (int i = 0; i < nd; ++i) Put(d[i]);
    }
  }
  // v * 10^(14 - exp10), rounded: v's 15 leading digits when exp10 is right.
  static constexpr uint64_t kMinDigits15 = 100000000000000ull;  // 10^14
  static uint64_t Digits15(double v, int exp10) {
    static constexpr double kPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
        1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    int n = 14 - exp10;
    for (; n > 22; n -= 22) v *= 1e22;
    for (; n < -22; n += 22) v /= 1e22;
    v = n >= 0 ? v * kPow10[n] : v / kPow10[-n];
    return static_cast<uint64_t>(v + 0.5);
  }
  // <0 sentinel fields serialize as null ("unknown").
  void DblOrNull(double v) {
    if (v < 0) {
      Str("null");
    } else {
      Dbl(v);
    }
  }
};

constexpr size_t kRecordBufBytes = 2048;

// --- ring slots -----------------------------------------------------------

// Per-slot seqlock: 0 = never written, odd = writer in the slot (2*seq + 1),
// even = published with state == 2*seq + 2. A reader that sees a different
// state after copying the payload drops the copy (torn or overwritten).
struct Slot {
  std::atomic<uint64_t> state{0};
  ForensicRecord rec;
};

// Claims `slot` for record `seq`: false when a newer record (seq + k *
// kRingSlots) already holds it. Producers a lap apart can reach one slot
// together; the compare-exchange makes them take turns, waiting out an
// older record's copy, and its acquire orders this copy after that one.
bool ClaimSlot(Slot& slot, uint64_t seq) {
  uint64_t state = slot.state.load(std::memory_order_relaxed);
  while (state <= 2 * seq) {
    if ((state & 1) != 0) {
      std::this_thread::yield();
      state = slot.state.load(std::memory_order_relaxed);
    } else if (slot.state.compare_exchange_weak(state, 2 * seq + 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      std::atomic_thread_fence(std::memory_order_release);
      return true;
    }
  }
  return false;
}

// Signal-handler view of the ring (set once the recorder exists). The
// handler must not touch FlightRecorder::Global() — it only reads these.
Slot* g_sig_ring = nullptr;
size_t g_sig_slots = 0;
std::atomic<uint64_t>* g_sig_next_seq = nullptr;
char g_sig_root[512] = "bench/out/postmortem";
std::atomic<bool> g_sig_in_handler{false};

// Copies `root` where the signal handler reads it: the handler reads no knob.
void SetSignalRoot(const std::string& root) {
  size_t n = std::min(root.size(), sizeof(g_sig_root) - 1);
  std::memcpy(g_sig_root, root.data(), n);
  g_sig_root[n] = '\0';
}

const char* TriggerKindName(int kind) {
  static const char* names[] = {"qerr", "latency", "drift", "signal",
                                "manual"};
  return names[kind];
}
constexpr int kKindQerr = 0;
constexpr int kKindLatency = 1;
constexpr int kKindDrift = 2;
constexpr int kKindSignal = 3;
constexpr int kKindManual = 4;
constexpr int kNumKinds = 5;

}  // namespace

// --- record helpers -------------------------------------------------------

void SetFrName(char* dst, size_t cap, std::string_view src) {
  size_t n = 0;
  for (char c : src) {
    if (n + 1 >= cap) break;
    unsigned char u = static_cast<unsigned char>(c);
    dst[n++] = (u < 0x20 || c == '"' || c == '\\' || u == 0x7F) ? '_' : c;
  }
  dst[n] = '\0';
}

size_t FormatForensicRecord(const ForensicRecord& rec, char* buf, size_t cap) {
  Buf b{buf, buf + cap};
  b.Str("{\"seq\":");
  b.U64(rec.seq);
  b.Str(",\"ts_ms\":");
  b.Dbl(static_cast<double>(rec.ts_ns) / 1e6);
  b.Str(",\"kind\":\"");
  b.Str(rec.kind == 'x' ? "exec" : "estimate");
  b.Str("\",\"estimator\":\"");
  b.Str(rec.estimator);
  b.Str("\",\"scope\":\"");
  b.Str(rec.scope);
  b.Str("\",\"query_hash\":\"");
  b.Hex64(rec.query_hash);
  b.Str("\",\"tables\":[");
  for (int i = 0; i < rec.tables_recorded; ++i) {
    if (i > 0) b.Put(',');
    b.I64(rec.tables[i]);
  }
  b.Str("],\"joins\":");
  b.U64(rec.num_joins);
  b.Str(",\"predicates\":");
  b.U64(rec.num_predicates);
  b.Str(",\"estimate\":");
  b.Dbl(rec.estimate);
  b.Str(",\"truth\":");
  b.DblOrNull(rec.truth);
  b.Str(",\"qerror\":");
  b.DblOrNull(rec.qerror);
  b.Str(",\"latency_us\":");
  b.DblOrNull(rec.latency_us);
  b.Str(",\"preds\":[");
  for (int i = 0; i < rec.preds_recorded; ++i) {
    if (i > 0) b.Put(',');
    b.Str("{\"t\":");
    b.I64(rec.preds[i].table);
    b.Str(",\"c\":");
    b.I64(rec.preds[i].column);
    b.Str(",\"lo\":");
    b.I64(rec.preds[i].lo);
    b.Str(",\"hi\":");
    b.I64(rec.preds[i].hi);
    b.Str(",\"sel\":");
    b.DblOrNull(rec.preds[i].selectivity);
    b.Put('}');
  }
  b.Str("],\"stages\":[");
  for (int i = 0; i < rec.stages_recorded; ++i) {
    if (i > 0) b.Put(',');
    b.Str("{\"s\":\"");
    b.Str(rec.stages[i].name);
    b.Str("\",\"us\":");
    b.Dbl(rec.stages[i].micros);
    b.Put('}');
  }
  b.Str("],\"fallbacks\":");
  b.U64(rec.num_fallbacks);
  b.Str(",\"fallback_site\":\"");
  b.Str(rec.fallback_site);
  b.Str("\"}");
  return static_cast<size_t>(b.p - buf);
}

void AppendRecordJson(const ForensicRecord& rec, std::string* out) {
  char buf[kRecordBufBytes];
  out->append(buf, FormatForensicRecord(rec, buf, sizeof(buf)));
}

// --- gate -----------------------------------------------------------------

bool FlightRecorderEnabled() { return knobs::Bool(knobs::kFlightRecorder); }

void SetFlightRecorderEnabledForTesting(int on) {
  knobs::Override(knobs::kFlightRecorder, on);
}

double QerrTriggerThreshold() { return knobs::Number(knobs::kFrQerrTrigger); }

// --- query log ------------------------------------------------------------

namespace {

JsonlSink& QueryLogSink() {
  static JsonlSink* sink = [] {
    std::atexit([] { FlushQueryLog(); });
    return new JsonlSink("query log");  // leaked: the exit hook uses it
  }();
  return *sink;
}

}  // namespace

bool QueryLogEnabled() { return knobs::Bool(knobs::kQueryLog); }

std::string QueryLogPath() { return knobs::String(knobs::kQueryLog); }

void SetQueryLogPathForTesting(const char* path) {
  FlushQueryLog();
  QueryLogSink().ResetForTesting();
  knobs::OverrideText(knobs::kQueryLog, path);
}

Status FlushQueryLog() {
  if (!QueryLogEnabled()) return Status::OK();
  return QueryLogSink().Flush(QueryLogPath());
}

uint64_t QueryLogLines() { return QueryLogSink().lines_appended(); }

bool QueryRecordsWanted() {
  return FlightRecorderEnabled() || QueryLogEnabled();
}

// --- recorder -------------------------------------------------------------

struct FlightRecorder::Impl {
  Slot* ring = nullptr;  // leaked with the Impl; the signal handler reads it
  std::atomic<uint64_t> next_seq{0};

  std::mutex bundle_mu;
  std::vector<BundleInfo> bundles;
  std::map<std::string, uint64_t> counter_snapshot;  // at the last bundle
  uint64_t last_kind_seq[kNumKinds] = {};
  int max_bundles = kMaxBundles;

  std::mutex lat_mu;
  WindowedQuantileSketch lat_sketch{FlightRecorder::kLatencyWindow};

  std::atomic<uint64_t> trigger_counts[kNumKinds] = {};
  std::atomic<bool> signals_installed{false};
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked: see Impl
  return *instance;
}

FlightRecorder::FlightRecorder() : impl_(new Impl()) {
  impl_->ring = new Slot[kRingSlots];
  // Publish the signal-handler view before handlers can be installed.
  g_sig_ring = impl_->ring;
  g_sig_slots = kRingSlots;
  g_sig_next_seq = &impl_->next_seq;
  if (knobs::Bool(knobs::kFrSignal)) InstallSignalHandlers();
}

size_t FlightRecorder::RingSlots() const { return kRingSlots; }

uint64_t FlightRecorder::RecordCount() const {
  return impl_->next_seq.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::Append(ForensicRecord rec, bool trigger_eligible) {
  const bool ring_on = FlightRecorderEnabled();
  const bool log_on = QueryLogEnabled();
  if (!ring_on && !log_on) return 0;
  if (rec.ts_ns == 0) rec.ts_ns = MonotonicNanos();
  uint64_t seq = impl_->next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.seq = seq;
  if (log_on) {
    char line[kRecordBufBytes];
    QueryLogSink().Append(
        std::string_view(line, FormatForensicRecord(rec, line, sizeof(line))),
        QueryLogPath());
  }
  if (!ring_on) return seq;
  Slot& slot = impl_->ring[seq & (kRingSlots - 1)];
  if (ClaimSlot(slot, seq)) {
    slot.rec = rec;
    slot.state.store(2 * seq + 2, std::memory_order_release);
  }
  static Counter& records =
      MetricsRegistry::Global().counter("telemetry.fr.records");
  records.Increment();

  if (!trigger_eligible) return seq;
  double qt = QerrTriggerThreshold();
  if (qt > 0 && rec.truth >= 0 && rec.qerror >= qt) {
    char detail[128];
    Buf b{detail, detail + sizeof(detail) - 1};
    b.Str("qerror ");
    b.Dbl(rec.qerror);
    b.Str(" >= trigger ");
    b.Dbl(qt);
    b.Put('\0');
    detail[sizeof(detail) - 1] = '\0';
    MaybeTriggerBundle(kKindQerr, detail, &rec);
  }
  double lf = LatencyTriggerFactor();
  if (lf > 0 && rec.latency_us >= 0) {
    double p99 = 0;
    bool armed = false;
    {
      std::lock_guard<std::mutex> lock(impl_->lat_mu);
      armed = impl_->lat_sketch.full();
      p99 = impl_->lat_sketch.Quantile(0.99);
      impl_->lat_sketch.Observe(rec.latency_us);
    }
    if (armed && p99 > 0 && rec.latency_us > lf * p99) {
      char detail[160];
      Buf b{detail, detail + sizeof(detail) - 1};
      b.Str("latency_us ");
      b.Dbl(rec.latency_us);
      b.Str(" > ");
      b.Dbl(lf);
      b.Str(" x rolling p99 ");
      b.Dbl(p99);
      b.Put('\0');
      detail[sizeof(detail) - 1] = '\0';
      MaybeTriggerBundle(kKindLatency, detail, &rec);
    }
  }
  return seq;
}

std::vector<ForensicRecord> FlightRecorder::SnapshotRing() const {
  std::vector<ForensicRecord> out;
  uint64_t head = impl_->next_seq.load(std::memory_order_acquire);
  if (head == 0) return out;
  uint64_t lo = head > kRingSlots ? head - kRingSlots + 1 : 1;
  out.reserve(head - lo + 1);
  for (uint64_t s = lo; s <= head; ++s) {
    const Slot& slot = impl_->ring[s & (kRingSlots - 1)];
    uint64_t s1 = slot.state.load(std::memory_order_acquire);
    if (s1 != 2 * s + 2) continue;  // never written, torn, or overwritten
    ForensicRecord copy = slot.rec;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.state.load(std::memory_order_relaxed) != s1) continue;
    out.push_back(copy);
  }
  return out;
}

void FlightRecorder::TriggerDriftAlert(const std::string& monitor,
                                       double window_p95, double threshold) {
  if (!FlightRecorderEnabled() || !DriftTriggerEnabled()) return;
  char detail[192];
  Buf b{detail, detail + sizeof(detail) - 1};
  b.Str("drift monitor ");
  // Monitor names are estimator names; sanitize like record fields.
  char name[kFrNameLen];
  SetFrName(name, sizeof(name), monitor);
  b.Str(name);
  b.Str(" window p95 ");
  b.Dbl(window_p95);
  b.Str(" > threshold ");
  b.Dbl(threshold);
  b.Put('\0');
  detail[sizeof(detail) - 1] = '\0';
  MaybeTriggerBundle(kKindDrift, detail, nullptr);
}

Status FlightRecorder::TriggerManualBundle(const std::string& detail) {
  char buf[192];
  SetFrName(buf, sizeof(buf), detail);
  return MaybeTriggerBundle(kKindManual, buf, nullptr);
}

std::vector<BundleInfo> FlightRecorder::Bundles() const {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  return impl_->bundles;
}

// Writes one bundle under the cooldown / budget rules. `offending` may be
// null (drift/manual: the trigger is not one record's fault).
Status FlightRecorder::MaybeTriggerBundle(int kind, const char* detail,
                                          const ForensicRecord* offending) {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  uint64_t seq = offending != nullptr ? offending->seq : RecordCount();
  if (kind == kKindQerr || kind == kKindLatency) {
    uint64_t last = impl_->last_kind_seq[kind];
    if (last != 0 && seq - last < kSameKindCooldownRecords) {
      return Status::OK();  // cooldown: deliberately not an error
    }
  }
  if (static_cast<int>(impl_->bundles.size()) >= impl_->max_bundles) {
    static Counter& suppressed =
        MetricsRegistry::Global().counter("telemetry.fr.bundles_suppressed");
    suppressed.AddAlways(1);
    return Status::OK();
  }
  impl_->last_kind_seq[kind] = seq == 0 ? 1 : seq;
  impl_->trigger_counts[kind].fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global()
      .counter(std::string("telemetry.fr.trigger.") + TriggerKindName(kind))
      .AddAlways(1);
  return WriteBundleLocked(kind, detail, offending);
}

namespace {

std::string UtcCompactTimestamp() {
  std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%dT%H%M%S", &tm_utc);
  return buf;
}

}  // namespace

Status FlightRecorder::WriteBundleLocked(int kind, const char* detail,
                                         const ForensicRecord* offending) {
  const std::string root = BundleRoot();
  std::string name = UtcCompactTimestamp() + "-" + TriggerKindName(kind);
  std::string dir = root + "/" + name;
  struct stat st;
  for (int i = 2; ::stat(dir.c_str(), &st) == 0; ++i) {
    dir = root + "/" + name + "-" + std::to_string(i);
  }

  // ring.jsonl — oldest first, full fidelity.
  std::vector<ForensicRecord> ring = SnapshotRing();
  std::string ring_text;
  ring_text.reserve(ring.size() * 512);
  for (const ForensicRecord& r : ring) {
    AppendRecordJson(r, &ring_text);
    ring_text.push_back('\n');
  }

  // metrics.json — the full registry dump.
  std::string metrics_text;
  {
    JsonWriter w(&metrics_text);
    MetricsRegistry::Global().WriteJson(&w);
  }
  metrics_text.push_back('\n');

  // meta.json — trigger context, the offending record, counter deltas since
  // the previous bundle (or process start).
  auto counters_now = MetricsRegistry::Global().CounterValues();
  std::string meta_text;
  {
    JsonWriter w(&meta_text);
    w.BeginObject();
    w.Key("version").Value(uint64_t{1});
    w.Key("trigger").Value(TriggerKindName(kind));
    w.Key("detail").Value(detail);
    w.Key("timestamp_utc").Value(UtcCompactTimestamp());
    w.Key("git_commit").Value(BuildGitCommit());
    w.Key("ring_records").Value(uint64_t{ring.size()});
    w.Key("records_total").Value(RecordCount());
    w.Key("offending_seq")
        .Value(offending != nullptr ? offending->seq : uint64_t{0});
    w.Key("offending");
    if (offending != nullptr) {
      std::string rec_json;
      AppendRecordJson(*offending, &rec_json);
      w.RawValue(rec_json);
    } else {
      w.Null();
    }
    w.Key("trigger_counts").BeginObject();
    for (int k = 0; k < kNumKinds; ++k) {
      w.Key(TriggerKindName(k))
          .Value(impl_->trigger_counts[k].load(std::memory_order_relaxed));
    }
    w.EndObject();
    w.Key("counter_deltas").BeginObject();
    for (const auto& [cname, value] : counters_now) {
      auto it = impl_->counter_snapshot.find(cname);
      uint64_t prev = it != impl_->counter_snapshot.end() ? it->second : 0;
      if (value != prev) w.Key(cname).Value(value - prev);
    }
    w.EndObject();
    w.EndObject();
  }
  meta_text.push_back('\n');

  Status s = fs::WriteStringToFile(dir + "/meta.json", meta_text);
  if (s.ok()) s = fs::WriteStringToFile(dir + "/ring.jsonl", ring_text);
  if (s.ok()) s = fs::WriteStringToFile(dir + "/metrics.json", metrics_text);
  if (s.ok() && SpanRecordingEnabled()) {
    s = fs::WriteStringToFile(dir + "/profile.collapsed",
                              ToCollapsed(SnapshotProfileForTesting()));
  }
  if (!s.ok()) {
    MetricsRegistry::Global().counter("telemetry.export_failures").AddAlways(1);
    LCE_LOG(ERROR) << "cannot write postmortem bundle: " << s.ToString();
    return s;
  }
  impl_->counter_snapshot =
      std::map<std::string, uint64_t>(counters_now.begin(), counters_now.end());
  impl_->bundles.push_back(
      {dir, TriggerKindName(kind),
       offending != nullptr ? offending->seq : uint64_t{0}});
  LCE_LOG(WARN) << "flight recorder wrote postmortem bundle " << dir << " ("
                << detail << ")";
  return Status::OK();
}

void FlightRecorder::WriteJson(JsonWriter* w) const {
  std::vector<BundleInfo> bundles = Bundles();
  w->BeginObject();
  w->Key("enabled").Value(FlightRecorderEnabled());
  w->Key("ring_slots").Value(uint64_t{kRingSlots});
  w->Key("records").Value(RecordCount());
  w->Key("qerr_trigger").Value(QerrTriggerThreshold());
  w->Key("latency_trigger_factor").Value(LatencyTriggerFactor());
  w->Key("drift_trigger").Value(DriftTriggerEnabled());
  w->Key("signal_trigger")
      .Value(impl_->signals_installed.load(std::memory_order_relaxed));
  w->Key("triggers").BeginObject();
  for (int k = 0; k < kNumKinds; ++k) {
    w->Key(TriggerKindName(k))
        .Value(impl_->trigger_counts[k].load(std::memory_order_relaxed));
  }
  w->EndObject();
  w->Key("bundles").BeginArray();
  for (const BundleInfo& b : bundles) {
    w->BeginObject()
        .Key("path").Value(b.path)
        .Key("trigger").Value(b.trigger)
        .Key("seq").Value(b.seq)
        .EndObject();
  }
  w->EndArray();
  w->EndObject();
}

// --- fatal-signal path ----------------------------------------------------
//
// Everything below runs inside a signal handler: only direct syscalls
// (mkdir/open/write/close), the Buf formatters above, and lock-free reads
// of the ring. No allocation, no locks, no stdio.

namespace {

void SigMkdirP(const char* path) {
  char tmp[512];
  size_t n = 0;
  while (path[n] != '\0' && n + 1 < sizeof(tmp)) {
    tmp[n] = path[n];
    ++n;
  }
  tmp[n] = '\0';
  for (size_t i = 1; i < n; ++i) {
    if (tmp[i] == '/') {
      tmp[i] = '\0';
      mkdir(tmp, 0755);
      tmp[i] = '/';
    }
  }
  mkdir(tmp, 0755);
}

void SigWriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = write(fd, data + off, n - off);
    if (w <= 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(w);
  }
}

// Static buffers: the handler is serialized by g_sig_in_handler, and a
// faulting thread's stack may be the thing that's broken.
char g_sig_path[640];
char g_sig_buf[kRecordBufBytes];

void FlightRecorderSignalHandler(int signo) {
  if (!g_sig_in_handler.exchange(true)) {
    // Bundle dir: <root>/<unix-seconds>-signal (wall-clock formatting via
    // gmtime is not async-signal-safe; the postmortem tool accepts either).
    Buf p{g_sig_path, g_sig_path + sizeof(g_sig_path) - 1};
    p.Str(g_sig_root);
    p.Str("/");
    p.U64(static_cast<uint64_t>(time(nullptr)));
    p.Str("-signal");
    p.Put('\0');
    SigMkdirP(g_sig_path);
    size_t dir_len = static_cast<size_t>(p.p - g_sig_path) - 1;

    uint64_t head = g_sig_next_seq != nullptr
                        ? g_sig_next_seq->load(std::memory_order_acquire)
                        : 0;

    // meta.json
    {
      Buf f{g_sig_path + dir_len, g_sig_path + sizeof(g_sig_path) - 1};
      f.Str("/meta.json");
      f.Put('\0');
      int fd = open(g_sig_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        Buf b{g_sig_buf, g_sig_buf + sizeof(g_sig_buf)};
        b.Str("{\"version\":1,\"trigger\":\"signal\",\"signal\":");
        b.I64(signo);
        b.Str(",\"unix_time\":");
        b.U64(static_cast<uint64_t>(time(nullptr)));
        b.Str(",\"records_total\":");
        b.U64(head);
        b.Str(",\"ring_slots\":");
        b.U64(g_sig_slots);
        b.Str(",\"offending_seq\":0,\"offending\":null}\n");
        SigWriteAll(fd, g_sig_buf, static_cast<size_t>(b.p - g_sig_buf));
        close(fd);
      }
    }

    // ring.jsonl — seqlock-read each slot into a static copy, skip torn.
    if (g_sig_ring != nullptr && head > 0) {
      Buf f{g_sig_path + dir_len, g_sig_path + sizeof(g_sig_path) - 1};
      f.Str("/ring.jsonl");
      f.Put('\0');
      int fd = open(g_sig_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        static ForensicRecord copy;
        uint64_t mask = g_sig_slots - 1;
        uint64_t lo = head > g_sig_slots ? head - g_sig_slots + 1 : 1;
        for (uint64_t s = lo; s <= head; ++s) {
          Slot& slot = g_sig_ring[s & mask];
          uint64_t s1 = slot.state.load(std::memory_order_acquire);
          if (s1 != 2 * s + 2) continue;
          copy = slot.rec;
          std::atomic_thread_fence(std::memory_order_acquire);
          if (slot.state.load(std::memory_order_relaxed) != s1) continue;
          size_t n = FormatForensicRecord(copy, g_sig_buf,
                                          sizeof(g_sig_buf) - 1);
          g_sig_buf[n++] = '\n';
          SigWriteAll(fd, g_sig_buf, n);
        }
        close(fd);
      }
    }
  }
  // Restore the default disposition and redeliver, so exit codes, cores,
  // and death tests see the signal exactly as without the recorder.
  signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

void FlightRecorder::InstallSignalHandlers() {
  if (impl_->signals_installed.exchange(true)) return;
  {
    // Pre-resolve the bundle root: reading a knob inside a handler is unsafe.
    std::lock_guard<std::mutex> lock(impl_->bundle_mu);
    SetSignalRoot(BundleRoot());
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &FlightRecorderSignalHandler;
  sigemptyset(&sa.sa_mask);
  for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, SIGTERM}) {
    sigaction(signo, &sa, nullptr);
  }
  LCE_LOG(INFO) << "flight recorder: fatal-signal bundle handler installed "
                << "(root " << g_sig_root << ")";
}

// --- test hooks -----------------------------------------------------------

void FlightRecorder::SetBundleRootForTesting(const char* dir) {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  knobs::OverrideText(knobs::kFrDir, dir);
  SetSignalRoot(BundleRoot());
}

void FlightRecorder::SetQerrTriggerForTesting(double t) {
  knobs::Override(knobs::kFrQerrTrigger, t);
}

void FlightRecorder::SetLatencyTriggerForTesting(double factor) {
  knobs::Override(knobs::kFrLatTrigger, factor);
}

void FlightRecorder::SetDriftTriggerForTesting(int on) {
  knobs::Override(knobs::kFrDrift, on);
}

void FlightRecorder::SetMaxBundlesForTesting(int n) {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  impl_->max_bundles = n < 0 ? kMaxBundles : n;
}

void FlightRecorder::ResetForTesting() {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  impl_->next_seq.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kRingSlots; ++i) {
    impl_->ring[i].state.store(0, std::memory_order_relaxed);
  }
  impl_->bundles.clear();
  impl_->counter_snapshot.clear();
  for (int k = 0; k < kNumKinds; ++k) {
    impl_->last_kind_seq[k] = 0;
    impl_->trigger_counts[k].store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lat_lock(impl_->lat_mu);
  impl_->lat_sketch = WindowedQuantileSketch(kLatencyWindow);
}

// --- per-thread stage capture (StageTimer feed) ---------------------------

namespace {

struct ThreadStages {
  ForensicStage stages[kFrMaxStages];
  int count = 0;
};
thread_local ThreadStages tls_stages;

}  // namespace

namespace internal {

void ResetThreadStageSamples() { tls_stages.count = 0; }

void NoteThreadStageSample(const char* stage, double micros) {
  if (tls_stages.count >= kFrMaxStages) return;
  ForensicStage& s = tls_stages.stages[tls_stages.count++];
  SetFrName(s.name, sizeof(s.name), stage);
  s.micros = micros;
}

}  // namespace internal

void FillStagesFromThread(ForensicRecord* rec) {
  int n = tls_stages.count;
  if (n > kFrMaxStages) n = kFrMaxStages;
  for (int i = 0; i < n; ++i) rec->stages[i] = tls_stages.stages[i];
  rec->stages_recorded = static_cast<uint8_t>(n);
}

}  // namespace telemetry
}  // namespace lce
