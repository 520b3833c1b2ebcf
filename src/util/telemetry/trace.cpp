#include "src/util/telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/telemetry/profiler.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace telemetry {

namespace {

// Elements per buffer block. A full block is never reallocated, so an
// append never moves earlier elements and a thread holds at most one
// part-filled block of each kind.
constexpr size_t kBlockCapacity = 4096;

template <typename T>
void AppendToBlocks(std::vector<std::vector<T>>* blocks, T value) {
  if (blocks->empty() || blocks->back().size() == kBlockCapacity) {
    blocks->emplace_back().reserve(kBlockCapacity);
  }
  blocks->back().push_back(std::move(value));
}

// A finished span as buffered. Its args go to the buffer's arg blocks, in
// recording order, so a span keeps no small heap block of its own: kept
// for the whole run, such blocks are scattered through the recording
// thread's malloc heap and strand the free memory around them.
struct SpanRecord {
  std::string name;
  int64_t start_ns;
  int64_t dur_ns;
  uint64_t id;
  uint64_t parent_id;
  size_t num_args;
};

// Per-thread span buffer. Registered globally on first use and kept alive
// (shared_ptr) past thread exit so a flush can still read it.
struct ThreadTraceBuffer {
  uint32_t tid;
  std::string thread_name;
  std::vector<std::vector<SpanRecord>> spans;
  std::vector<std::vector<std::pair<std::string, double>>> args;
  std::mutex mu;  // owner thread appends; flush/snapshot reads concurrently
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::atomic<uint32_t> next_tid{1};
};

TraceState& State() {
  static TraceState* state = [] {
    // A process that records spans writes its trace and profile at exit,
    // even if it never constructs a BenchRun (examples, tools).
    std::atexit([] {
      (void)WriteTraceNow();
      (void)WriteProfileNow();
    });
    return new TraceState();
  }();
  return *state;
}

ThreadTraceBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto b = std::make_shared<ThreadTraceBuffer>();
    TraceState& s = State();
    b->tid = s.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s.mu);
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// Span-id plumbing: ids are process-unique; each thread tracks the innermost
// live span so nested (and pool-adopted) spans can record their parent.
std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t tls_current_span_id = 0;

}  // namespace

bool TraceEnabled() { return knobs::Bool(knobs::kTrace); }

bool SpanRecordingEnabled() { return TraceEnabled() || ProfileEnabled(); }

void SetTracePathForTesting(const char* path) {
  knobs::OverrideText(knobs::kTrace, path);
}

std::string TracePath() { return knobs::String(knobs::kTrace); }

uint64_t CurrentSpanId() { return tls_current_span_id; }

ScopedTraceParent::ScopedTraceParent(uint64_t parent_id)
    : saved_(tls_current_span_id) {
  tls_current_span_id = parent_id;
}

ScopedTraceParent::~ScopedTraceParent() { tls_current_span_id = saved_; }

void SetCurrentThreadName(std::string name) {
  ThreadTraceBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.thread_name = std::move(name);
}

namespace internal {

void AppendCompleteEvent(std::string name, int64_t start_ns, int64_t end_ns,
                         uint64_t id, uint64_t parent_id,
                         std::vector<std::pair<std::string, double>> args) {
  ThreadTraceBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  AppendToBlocks(&buffer.spans, SpanRecord{std::move(name), start_ns,
                                           end_ns - start_ns, id, parent_id,
                                           args.size()});
  for (auto& arg : args) AppendToBlocks(&buffer.args, std::move(arg));
}

uint64_t BeginSpan() {
  uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  tls_current_span_id = id;
  return id;
}

void RestoreCurrentSpan(uint64_t parent_id) {
  tls_current_span_id = parent_id;
}

}  // namespace internal

TraceSpan::TraceSpan(const char* name) : active_(SpanRecordingEnabled()) {
  if (!active_) return;
  name_ = name;
  parent_id_ = CurrentSpanId();
  id_ = internal::BeginSpan();
  start_ns_ = MonotonicNanos();
}

TraceSpan::TraceSpan(std::string name) : active_(SpanRecordingEnabled()) {
  if (!active_) return;
  name_ = std::move(name);
  parent_id_ = CurrentSpanId();
  id_ = internal::BeginSpan();
  start_ns_ = MonotonicNanos();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  internal::RestoreCurrentSpan(parent_id_);
  internal::AppendCompleteEvent(std::move(name_), start_ns_, MonotonicNanos(),
                                id_, parent_id_, std::move(args_));
}

void TraceSpan::AddArg(const char* key, double value) {
  if (!active_) return;
  args_.emplace_back(key, value);
}

namespace {

// Snapshot of every thread buffer, events in recording order per thread.
std::vector<TraceEvent> CollectEvents() {
  TraceState& s = State();
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    buffers = s.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    size_t next_arg = 0;  // index into the concatenated arg blocks
    for (const auto& block : b->spans) {
      for (const SpanRecord& r : block) {
        TraceEvent& e = out.emplace_back();
        e.name = r.name;
        e.start_ns = r.start_ns;
        e.dur_ns = r.dur_ns;
        e.tid = b->tid;
        e.id = r.id;
        e.parent_id = r.parent_id;
        for (size_t i = 0; i < r.num_args; ++i, ++next_arg) {
          e.args.push_back(b->args[next_arg / kBlockCapacity]
                                  [next_arg % kBlockCapacity]);
        }
      }
    }
  }
  return out;
}

}  // namespace

Status WriteTraceNow() {
  std::string path = TracePath();
  if (path.empty()) return Status::OK();
  std::vector<TraceEvent> events = CollectEvents();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });

  std::string out;
  out.reserve(events.size() * 128 + 256);
  JsonWriter w(&out, JsonWriter::Style::kCompact);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();
  w.BeginObject()
      .Key("ph").Value("M")
      .Key("name").Value("process_name")
      .Key("pid").Value(1)
      .Key("tid").Value(0)
      .Key("args").BeginObject().Key("name").Value("lce").EndObject()
      .EndObject();
  // Thread-name metadata: one event per named thread.
  {
    TraceState& s = State();
    std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      buffers = s.buffers;
    }
    for (const auto& b : buffers) {
      std::lock_guard<std::mutex> lock(b->mu);
      if (b->thread_name.empty()) continue;
      w.BeginObject()
          .Key("ph").Value("M")
          .Key("name").Value("thread_name")
          .Key("pid").Value(1)
          .Key("tid").Value(uint64_t{b->tid})
          .Key("args").BeginObject().Key("name").Value(b->thread_name).EndObject()
          .EndObject();
    }
  }
  // Parent lookup for cross-thread flow arrows: span id -> (tid, start_ns).
  std::map<uint64_t, std::pair<uint32_t, int64_t>> span_index;
  for (const TraceEvent& e : events) {
    if (e.id != 0) span_index.emplace(e.id, std::make_pair(e.tid, e.start_ns));
  }
  for (const TraceEvent& e : events) {
    w.BeginObject()
        .Key("ph").Value("X")
        .Key("name").Value(e.name)
        .Key("cat").Value("lce")
        .Key("pid").Value(1)
        .Key("tid").Value(uint64_t{e.tid})
        .Key("ts").Value(static_cast<double>(e.start_ns) / 1000.0)
        .Key("dur").Value(static_cast<double>(e.dur_ns) / 1000.0);
    if (!e.args.empty() || e.id != 0) {
      w.Key("args").BeginObject();
      if (e.id != 0) {
        w.Key("span_id").Value(e.id);
        w.Key("parent_span_id").Value(e.parent_id);
      }
      for (const auto& [k, v] : e.args) w.Key(k).Value(v);
      w.EndObject();
    }
    w.EndObject();
    // Spans whose parent lives on another thread get a flow arrow from the
    // parent span's start to this span's start (chrome://tracing draws the
    // submit edge). Same-thread nesting is already visible from the stack.
    auto parent = span_index.find(e.parent_id);
    if (e.parent_id != 0 && parent != span_index.end() &&
        parent->second.first != e.tid) {
      w.BeginObject()
          .Key("ph").Value("s")
          .Key("id").Value(e.id)
          .Key("name").Value("submit")
          .Key("cat").Value("lce")
          .Key("pid").Value(1)
          .Key("tid").Value(uint64_t{parent->second.first})
          .Key("ts").Value(static_cast<double>(parent->second.second) / 1000.0)
          .EndObject();
      w.BeginObject()
          .Key("ph").Value("f")
          .Key("bp").Value("e")
          .Key("id").Value(e.id)
          .Key("name").Value("submit")
          .Key("cat").Value("lce")
          .Key("pid").Value(1)
          .Key("tid").Value(uint64_t{e.tid})
          .Key("ts").Value(static_cast<double>(e.start_ns) / 1000.0)
          .EndObject();
    }
  }
  w.EndArray();
  w.EndObject();

  Status written = fs::WriteStringToFile(path, out);
  if (!written.ok()) {
    MetricsRegistry::Global().counter("telemetry.export_failures").AddAlways(1);
    LCE_LOG(ERROR) << "cannot write trace output: " << written.ToString();
    return written;
  }
  LCE_LOG(INFO) << "wrote " << events.size() << " trace events to " << path;
  return Status::OK();
}

std::vector<TraceEvent> SnapshotTraceEventsForTesting() {
  return CollectEvents();
}

void ClearTraceForTesting() {
  TraceState& s = State();
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    buffers = s.buffers;
  }
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->spans.clear();
    b->args.clear();
  }
}

}  // namespace telemetry
}  // namespace lce
