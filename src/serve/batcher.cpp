#include "src/serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace serve {

namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

}  // namespace

BatcherOptions BatcherOptions::FromEnv() {
  BatcherOptions o;
  const char* b = std::getenv("LCE_SERVE_BATCH");
  if (b != nullptr && std::string_view(b) == "0") o.enabled = false;
  o.max_batch = std::max(1, EnvInt("LCE_SERVE_MAX_BATCH", o.max_batch));
  o.deadline_us = std::max(0, EnvInt("LCE_SERVE_BATCH_US", o.deadline_us));
  return o;
}

MicroBatcher::MicroBatcher(const BatcherOptions& options, ExecFn exec)
    : options_(options),
      exec_(std::move(exec)),
      requests_(telemetry::MetricsRegistry::Global().counter("serve.requests")),
      batches_(telemetry::MetricsRegistry::Global().counter("serve.batches")),
      batch_size_(
          telemetry::MetricsRegistry::Global().histogram("serve.batch_size")),
      queue_wait_us_(telemetry::MetricsRegistry::Global().histogram(
          "serve.queue_wait_us")) {
  LCE_CHECK(exec_ != nullptr);
}

MicroBatcher::Ticket MicroBatcher::Submit(const query::Query& q) {
  if (!options_.enabled || options_.max_batch <= 1) {
    // Coalescing off: a batch of one, no queueing.
    std::vector<query::Query> one{q};
    std::vector<double> est;
    Ticket t;
    exec_(one, &est, &t.model_version);
    LCE_CHECK(est.size() == 1);
    t.estimate = est[0];
    requests_.Increment();
    batches_.Increment();
    batch_size_.Observe(1.0);
    queue_wait_us_.Observe(0.0);
    return t;
  }

  Request req;
  req.query = &q;
  req.enqueue_ns = telemetry::MonotonicNanos();

  std::unique_lock<std::mutex> lk(mu_);
  ++inflight_;
  window_peak_ = std::max(window_peak_, inflight_);
  queue_.push_back(&req);
  arrival_cv_.notify_one();  // at most the collecting leader is waiting here
  while (!req.done) {
    if (!leader_active_) {
      leader_active_ = true;
      RunLeader(&lk);
      leader_active_ = false;
      done_cv_.notify_all();  // wake this flush's followers + elect next leader
    } else {
      done_cv_.wait(lk);
    }
  }
  --inflight_;
  return req.ticket;
}

void MicroBatcher::RunLeader(std::unique_lock<std::mutex>* lk) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.deadline_us);
  for (;;) {
    // Adaptive flush target: the peak concurrency observed since the last
    // flush was taken. The instantaneous inflight_ is not enough — in steady
    // state the first re-arriving client becomes leader while its siblings
    // still look idle and would flush alone. Nor is the previous flush size:
    // if one flush goes out a straggler short, that size becomes the next
    // target and every flush thereafter strands the slowest resubmitter (a
    // stable one-short orbit that also loses the 4-row kernel panel). The
    // window peak sees the straggler that arrived mid-flush, so the next
    // flush waits for the full cohort. Once the queue reaches the target,
    // waiting can only add latency; when concurrency truly dropped, the
    // window reset below shrinks the target and the deadline caps the wait.
    const int target =
        std::min(options_.max_batch, std::max({1, inflight_, window_peak_}));
    if (static_cast<int>(queue_.size()) >= target) break;
    if (arrival_cv_.wait_until(*lk, deadline) == std::cv_status::timeout) {
      break;
    }
  }

  const int take =
      std::min<int>(static_cast<int>(queue_.size()), options_.max_batch);
  LCE_CHECK(take >= 1);  // the leader's own request is always queued
  // New demand window: everyone still inside Submit() (this batch's members
  // included — their peers will re-arrive before they finish draining) seeds
  // the next peak, so a client that left for good stops inflating it.
  window_peak_ = inflight_;
  std::vector<Request*> batch(queue_.begin(), queue_.begin() + take);
  queue_.erase(queue_.begin(), queue_.begin() + take);

  lk->unlock();
  const int64_t flush_ns = telemetry::MonotonicNanos();
  std::vector<query::Query> queries;
  queries.reserve(batch.size());
  for (const Request* r : batch) queries.push_back(*r->query);
  std::vector<double> estimates;
  uint64_t version = 0;
  exec_(queries, &estimates, &version);
  LCE_CHECK(estimates.size() == queries.size());

  requests_.Add(static_cast<uint64_t>(take));
  batches_.Increment();
  batch_size_.Observe(static_cast<double>(take));

  lk->lock();
  for (int i = 0; i < take; ++i) {
    Request* r = batch[static_cast<size_t>(i)];
    r->ticket.estimate = estimates[static_cast<size_t>(i)];
    r->ticket.model_version = version;
    r->ticket.batch_size = take;
    r->ticket.queue_wait_us =
        static_cast<double>(flush_ns - r->enqueue_ns) * 1e-3;
    queue_wait_us_.Observe(r->ticket.queue_wait_us);
    r->done = true;
  }
}

}  // namespace serve
}  // namespace lce
