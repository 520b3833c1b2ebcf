#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/telemetry/trace.h"

namespace lce {
namespace parallel {

namespace {

// Set on every lane of a running region, the caller's lane included (and
// for good inside pool workers), so nested parallel regions run inline on
// the lane that meets them instead of fanning out to a pool whose workers
// are busy with the outer region.
thread_local bool tls_in_region = false;

// Pool utilization metrics (LCE_METRICS): aggregate across workers via the
// counters' per-thread shards. Handles are cached once; the registry never
// invalidates them.
telemetry::Counter& PoolTasksExecuted() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("pool.tasks_executed");
  return c;
}

telemetry::Counter& PoolIdleNs() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("pool.idle_ns");
  return c;
}

telemetry::Counter& PoolRegions() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("pool.regions");
  return c;
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  bool stop = false;
  std::vector<std::thread> workers;

  void WorkerLoop(int worker_index) {
    tls_in_region = true;
    telemetry::SetCurrentThreadName("pool/" + std::to_string(worker_index));
    for (;;) {
      std::function<void()> task;
      {
        // Idle time = wall clock spent waiting for work (metrics-gated so
        // the disabled path never reads a clock).
        bool measure_idle = telemetry::MetricsEnabled();
        int64_t idle_start =
            measure_idle ? telemetry::MonotonicNanos() : 0;
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (measure_idle) {
          PoolIdleNs().Add(
              static_cast<uint64_t>(telemetry::MonotonicNanos() - idle_start));
        }
        if (queue.empty()) {
          if (stop) return;
          continue;
        }
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
      PoolTasksExecuted().Increment();
    }
  }
};

ThreadPool::ThreadPool(int size) : size_(std::max(1, size)), impl_(nullptr) {
  if (size_ <= 1) return;
  impl_ = new Impl();
  impl_->workers.reserve(static_cast<size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (impl_ == nullptr) {
    task();
    return;
  }
  if (telemetry::SpanRecordingEnabled()) {
    // Parent pool work under the submitting span: capture the submitter's
    // innermost span id now and re-establish it inside the worker, so lane
    // spans nest in the trace instead of starting orphan roots.
    task = [parent = telemetry::CurrentSpanId(), inner = std::move(task)] {
      telemetry::ScopedTraceParent adopt(parent);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

namespace {

int DefaultThreadCount() {
  const char* env = std::getenv("LCE_THREADS");
  if (env != nullptr && *env != '\0') {
    int v = std::atoi(env);
    if (v > 0) return v;
    LCE_LOG(WARN) << "ignoring invalid LCE_THREADS=" << env
                  << "; using hardware concurrency";
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool_owner;          // guarded by g_pool_mu
std::atomic<ThreadPool*> g_pool{nullptr};          // fast path

}  // namespace

ThreadPool* GlobalPool() {
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return pool;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool_owner == nullptr) {
    int size = DefaultThreadCount();
    LCE_LOG(DEBUG) << "thread pool: " << size << " lanes (LCE_THREADS="
                   << (std::getenv("LCE_THREADS") != nullptr
                           ? std::getenv("LCE_THREADS")
                           : "<unset>")
                   << ")";
    g_pool_owner = std::make_unique<ThreadPool>(size);
  }
  g_pool.store(g_pool_owner.get(), std::memory_order_release);
  return g_pool_owner.get();
}

int ThreadCount() { return GlobalPool()->size(); }

void SetThreadCountForTesting(int size) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool.store(nullptr, std::memory_order_release);
  g_pool_owner.reset();  // joins the old workers
  g_pool_owner =
      std::make_unique<ThreadPool>(size > 0 ? size : DefaultThreadCount());
  g_pool.store(g_pool_owner.get(), std::memory_order_release);
}

namespace internal {

bool ShouldParallelize(int64_t num_chunks) {
  return num_chunks > 1 && !tls_in_region && GlobalPool()->size() > 1;
}

void ParallelForChunksImpl(
    int64_t begin, int64_t end, int64_t grain, int64_t num_chunks,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  ThreadPool* pool = GlobalPool();
  // Shared by the caller lane and the submitted helper tasks. Helpers that
  // wake up after every chunk is claimed exit without touching `fn`, so the
  // state (not `fn`) is the only thing that must outlive this call.
  struct State {
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> chunks_done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  const auto* fn_ptr = &fn;
  PoolRegions().Increment();
  telemetry::TraceSpan region_span("parallel/region");
  region_span.AddArg("chunks", static_cast<double>(num_chunks));

  // A lane opens its span on its first chunk and closes it before adding
  // its chunk count to chunks_done, so the caller cannot return while a
  // lane span (the parent of the spans `fn` opened) is still unrecorded. A
  // lane that claims no chunk records nothing.
  auto run_chunks = [state, fn_ptr, begin, end, grain, num_chunks] {
    int64_t done = 0;
    {
      std::optional<telemetry::TraceSpan> lane_span;
      for (;;) {
        int64_t c = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) break;
        if (!lane_span) lane_span.emplace("parallel/lane");
        int64_t b = begin + c * grain;
        try {
          (*fn_ptr)(c, b, std::min(end, b + grain));
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->error) state->error = std::current_exception();
        }
        ++done;
      }
    }
    if (done > 0 && state->chunks_done.fetch_add(done) + done == num_chunks) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  };

  const int64_t helpers =
      std::min<int64_t>(pool->size(), num_chunks) - 1;  // caller is a lane
  for (int64_t i = 0; i < helpers; ++i) pool->Submit(run_chunks);
  // The caller's lane is a lane of this region like any worker: regions
  // nested in its chunks run inline too.
  tls_in_region = true;
  run_chunks();
  tls_in_region = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->chunks_done.load(std::memory_order_acquire) >= num_chunks;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace internal

}  // namespace parallel
}  // namespace lce
