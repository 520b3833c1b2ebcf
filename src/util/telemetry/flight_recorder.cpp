#include "src/util/telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/logging.h"
#include "src/util/telemetry/drift.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/run_manifest.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace telemetry {

namespace {

// --- env gates ------------------------------------------------------------

std::atomic<int> g_enabled_override{-1};

bool EnvEnabled() {
  static bool v = [] {
    const char* e = std::getenv("LCE_FLIGHT_RECORDER");
    return e == nullptr || std::string_view(e) != "0";
  }();
  return v;
}

double EnvDoubleKnob(const char* name) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return 0;
  char* end = nullptr;
  double v = std::strtod(e, &end);
  if (end == nullptr || *end != '\0' || !(v > 0)) return 0;
  return v;
}

bool EnvBoolKnob(const char* name) {
  const char* e = std::getenv(name);
  return e != nullptr && *e != '\0' && std::string_view(e) != "0";
}

// Test overrides: NaN / INT_MIN sentinels mean "use the env value".
std::atomic<double> g_qerr_override{-1.0};
std::atomic<double> g_lat_override{-1.0};
std::atomic<int> g_drift_override{-1};
std::atomic<int> g_max_bundles_override{-1};

double LatencyTriggerFactor() {
  double o = g_lat_override.load(std::memory_order_relaxed);
  if (o >= 0) return o;
  static double v = EnvDoubleKnob("LCE_FR_LAT_TRIGGER");
  return v;
}

bool DriftTriggerEnabled() {
  int o = g_drift_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static bool v = EnvBoolKnob("LCE_FR_DRIFT");
  return v;
}

bool SignalTriggerEnabled() { return EnvBoolKnob("LCE_FR_SIGNAL"); }

int MaxBundles() {
  int o = g_max_bundles_override.load(std::memory_order_relaxed);
  if (o >= 0) return o;
  static int v = [] {
    const char* e = std::getenv("LCE_FR_MAX_BUNDLES");
    if (e != nullptr && *e != '\0') {
      char* end = nullptr;
      long n = std::strtol(e, &end, 10);
      if (end != nullptr && *end == '\0' && n >= 0) return static_cast<int>(n);
    }
    return 8;
  }();
  return v;
}

std::string EnvBundleRoot() {
  if (const char* d = std::getenv("LCE_FR_DIR"); d != nullptr && *d != '\0') {
    return d;
  }
  // Mirrors bench::BenchOutDir() (telemetry cannot depend on bench/).
  const char* out = std::getenv("LCE_BENCH_OUT_DIR");
  std::string base = (out != nullptr && *out != '\0') ? out : "bench/out";
  return base + "/postmortem";
}

// --- async-signal-safe formatting ----------------------------------------
//
// The signal path cannot use snprintf/ostream/std::string (allocation,
// locale locks). These writers cover everything a ForensicRecord needs:
// decimals, a truncating 6-digit double, and lowercase hex.

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
  // Truncating (not rounding) decimal with 6 fractional digits, switching to
  // a manual e-notation outside [1e-4, 1e15). Non-finite values emit null
  // (JSON has no NaN/Inf).
  void Dbl(double v) {
    if (!__builtin_isfinite(v)) {
      Str("null");
      return;
    }
    if (v < 0) {
      Put('-');
      v = -v;
    }
    int exp10 = 0;
    if (v > 0 && (v >= 1e15 || v < 1e-4)) {
      while (v >= 10) {
        v /= 10;
        ++exp10;
      }
      while (v < 1) {
        v *= 10;
        --exp10;
      }
    }
    uint64_t ip = static_cast<uint64_t>(v);
    U64(ip);
    double frac = v - static_cast<double>(ip);
    char fd[6];
    int nd = 0;
    for (int i = 0; i < 6; ++i) {
      frac *= 10;
      int d = static_cast<int>(frac);
      if (d > 9) d = 9;
      fd[nd++] = static_cast<char>('0' + d);
      frac -= d;
    }
    while (nd > 0 && fd[nd - 1] == '0') --nd;
    if (nd > 0) {
      Put('.');
      for (int i = 0; i < nd; ++i) Put(fd[i]);
    }
    if (exp10 != 0) {
      Put('e');
      I64(exp10);
    }
  }
  // <0 sentinel fields serialize as null ("unknown"), like ExplainRecord.
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

// Per-slot seqlock: 0 = never written, odd = writer in the slot, even =
// published with state == 2*seq + 2. A reader that sees a different state
// after copying the payload drops the copy (torn or overwritten).
struct Slot {
  std::atomic<uint64_t> state{0};
  ForensicRecord rec;
};

// Signal-handler view of the ring (set once the recorder exists). The
// handler must not touch FlightRecorder::Global() — it only reads these.
Slot* g_sig_ring = nullptr;
size_t g_sig_slots = 0;
std::atomic<uint64_t>* g_sig_next_seq = nullptr;
char g_sig_root[512] = "bench/out/postmortem";
std::atomic<bool> g_sig_in_handler{false};

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

uint64_t ForensicRecord::IrHash() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(num_tables);
  for (int i = 0; i < tables_recorded; ++i) mix(static_cast<uint64_t>(tables[i]));
  mix(num_predicates);
  for (int i = 0; i < preds_recorded; ++i) {
    mix(static_cast<uint64_t>(preds[i].table) << 32 |
        static_cast<uint32_t>(preds[i].column));
    mix(static_cast<uint64_t>(preds[i].lo));
    mix(static_cast<uint64_t>(preds[i].hi));
  }
  return h;
}

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

bool FlightRecorderEnabled() {
  int o = g_enabled_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return EnvEnabled();
}

void SetFlightRecorderEnabledForTesting(int on) {
  g_enabled_override.store(on < 0 ? -1 : (on != 0),
                           std::memory_order_relaxed);
}

double QerrTriggerThreshold() {
  double o = g_qerr_override.load(std::memory_order_relaxed);
  if (o >= 0) return o;
  static double v = [] {
    double t = EnvDoubleKnob("LCE_FR_QERR_TRIGGER");
    return t > 1 ? t : 0;
  }();
  return v;
}

// --- recorder -------------------------------------------------------------

struct FlightRecorder::Impl {
  size_t slots = 0;
  uint64_t mask = 0;
  Slot* ring = nullptr;  // leaked with the Impl; the signal handler reads it
  std::atomic<uint64_t> next_seq{0};

  std::mutex bundle_mu;
  std::vector<BundleInfo> bundles;
  std::map<std::string, uint64_t> counter_snapshot;  // at the last bundle
  uint64_t last_kind_seq[kNumKinds] = {};
  std::string root_override;  // empty = env-derived
  bool root_overridden = false;

  std::mutex lat_mu;
  WindowedQuantileSketch lat_sketch{FlightRecorder::kLatencyWindow};

  std::atomic<uint64_t> trigger_counts[kNumKinds] = {};
  std::atomic<bool> signals_installed{false};

  std::string BundleRootLocked() const {
    return root_overridden ? root_override : EnvBundleRoot();
  }
};

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked: see Impl
  return *instance;
}

FlightRecorder::FlightRecorder() : impl_(new Impl()) {
  size_t want = 512;
  const char* e = std::getenv("LCE_FR_RING");
  if (e != nullptr && *e != '\0') {
    char* end = nullptr;
    long n = std::strtol(e, &end, 10);
    if (end != nullptr && *end == '\0' && n > 0) {
      want = static_cast<size_t>(n);
    }
  }
  size_t slots = 8;
  while (slots < want) slots *= 2;
  impl_->slots = slots;
  impl_->mask = slots - 1;
  impl_->ring = new Slot[slots];
  // Publish the signal-handler view before handlers can be installed.
  g_sig_ring = impl_->ring;
  g_sig_slots = slots;
  g_sig_next_seq = &impl_->next_seq;
  if (SignalTriggerEnabled()) InstallSignalHandlers();
}

size_t FlightRecorder::RingSlots() const { return impl_->slots; }

uint64_t FlightRecorder::RecordCount() const {
  return impl_->next_seq.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::Append(ForensicRecord rec, bool trigger_eligible) {
  if (!FlightRecorderEnabled()) return 0;
  if (rec.ts_ns == 0) rec.ts_ns = MonotonicNanos();
  if (rec.query_hash == 0) rec.query_hash = rec.IrHash();
  uint64_t seq = impl_->next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.seq = seq;
  Slot& slot = impl_->ring[seq & impl_->mask];
  slot.state.store(2 * seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.rec = rec;
  slot.state.store(2 * seq + 2, std::memory_order_release);
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
  uint64_t lo = head > impl_->slots ? head - impl_->slots + 1 : 1;
  out.reserve(head - lo + 1);
  for (uint64_t s = lo; s <= head; ++s) {
    const Slot& slot = impl_->ring[s & impl_->mask];
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
  if (static_cast<int>(impl_->bundles.size()) >= MaxBundles()) {
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
  const std::string root = impl_->BundleRootLocked();
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
  w->Key("ring_slots").Value(uint64_t{impl_->slots});
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
    // Pre-resolve the bundle root: getenv inside a handler is unsafe.
    std::lock_guard<std::mutex> lock(impl_->bundle_mu);
    std::string root = impl_->BundleRootLocked();
    size_t n = root.size() < sizeof(g_sig_root) - 1 ? root.size()
                                                    : sizeof(g_sig_root) - 1;
    std::memcpy(g_sig_root, root.data(), n);
    g_sig_root[n] = '\0';
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
  impl_->root_overridden = dir != nullptr;
  impl_->root_override = dir != nullptr ? dir : "";
  if (dir != nullptr) {
    size_t n = impl_->root_override.size() < sizeof(g_sig_root) - 1
                   ? impl_->root_override.size()
                   : sizeof(g_sig_root) - 1;
    std::memcpy(g_sig_root, impl_->root_override.data(), n);
    g_sig_root[n] = '\0';
  }
}

void FlightRecorder::SetQerrTriggerForTesting(double t) {
  g_qerr_override.store(t, std::memory_order_relaxed);
}

void FlightRecorder::SetLatencyTriggerForTesting(double factor) {
  g_lat_override.store(factor, std::memory_order_relaxed);
}

void FlightRecorder::SetDriftTriggerForTesting(int on) {
  g_drift_override.store(on, std::memory_order_relaxed);
}

void FlightRecorder::SetMaxBundlesForTesting(int n) {
  g_max_bundles_override.store(n, std::memory_order_relaxed);
}

void FlightRecorder::ResetForTesting() {
  std::lock_guard<std::mutex> lock(impl_->bundle_mu);
  impl_->next_seq.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < impl_->slots; ++i) {
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
