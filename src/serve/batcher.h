// Cross-request micro-batching for the estimation service.
//
// Concurrent clients each submit one query and block for its answer. While
// no more requests are in flight than the thread pool has lanes
// (parallel::ThreadCount()), a request runs on its caller's thread as a
// batch of one: estimators are reentrant (ce/estimator.h), so nothing
// serializes them, and a handoff would only add latency. Past the lanes,
// the batcher coalesces whatever is waiting into one EstimateBatch() call
// so the SIMD kernel layer sees N×d matrices instead of N separate 1×d
// forwards, and the extra clients wait in the queue instead of
// oversubscribing the cores. Correctness rests on the kernel bit-identity
// contract (DESIGN.md §10): a batched forward is bit-identical per row to
// the per-query loop, so neither path changes answers.
//
// Leader/follower protocol: the first waiter whose request is undone and
// sees no active leader becomes the leader. The leader collects requests
// until the batch is full, the adaptive target is met, or the deadline
// expires, then executes the flush outside the queue lock, publishes every
// result, and steps down; an unserved waiter promotes itself next. Clients
// must be plain threads — pool tasks must not block on pool tasks, and the
// flush itself fans out on the global pool inside the kernels.
//
// Adaptive target: the leader flushes as soon as the queue reaches the peak
// number of concurrently in-flight requests observed since the previous
// flush was taken, capped at max_batch — so a lone client never waits out
// the deadline, while at a steady concurrency of N the first re-arriving
// client (which would see an instantaneous in-flight count of 1) still
// holds the batch open for its N-1 peers. The peak is the right memory: a
// straggler that arrived mid-flush raises it, so the next flush waits for
// the full cohort instead of locking into a forever-one-short cycle (an
// instantaneous or last-flush-size target sustains that degenerate orbit).
// The window resets at each take, so the target tracks clients leaving
// within one flush; the deadline bounds the wait when concurrency dropped.
// The target counts only requests on the coalescing path: the ones running
// inline never join the queue.
//
// Options (BatcherOptions; the service uses the defaults):
//   enabled      false disables coalescing: every request executes alone on
//                its caller's thread, however many are in flight (the
//                serving bench's batch-off arm). Default on: coalesce only
//                past the pool's lanes.
//   deadline_us  flush deadline in microseconds (default 200).
//   max_batch    max requests per flush (default 64).

#ifndef LCE_SERVE_BATCHER_H_
#define LCE_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "src/query/query.h"

namespace lce {
namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

namespace serve {

struct BatcherOptions {
  bool enabled = true;
  int max_batch = 64;
  int deadline_us = 200;
};

class MicroBatcher {
 public:
  /// Executes one flush: estimates for `queries` in order, plus the model
  /// version the whole batch was answered by (resolved once per flush, so a
  /// concurrent re-register never splits a batch across versions). Called
  /// with no batcher lock held, from as many threads at once as requests
  /// run inline, so it must be reentrant.
  using ExecFn = std::function<void(const std::vector<query::Query>& queries,
                                    std::vector<double>* estimates,
                                    uint64_t* version)>;

  /// What one request learns about the flush that answered it.
  struct Ticket {
    double estimate = 0;
    uint64_t model_version = 0;
    int batch_size = 1;        // requests in the flush, including this one
    double queue_wait_us = 0;  // enqueue -> flush start
  };

  MicroBatcher(const BatcherOptions& options, ExecFn exec);

  /// Answers `q`; safe to call from many threads. While at most
  /// parallel::ThreadCount() requests are in flight (this one included), or
  /// with batching disabled, `q` runs on the caller's thread as a batch of
  /// one with no queue wait. Otherwise it blocks until a coalesced flush
  /// answers it.
  Ticket Submit(const query::Query& q);

 private:
  struct Request {
    const query::Query* query = nullptr;
    int64_t enqueue_ns = 0;
    bool done = false;
    Ticket ticket;
  };

  /// Answers `q` on the caller's thread as a batch of one.
  Ticket RunInline(const query::Query& q);

  /// Joins the queue and blocks until a flush answers `q`.
  Ticket Coalesce(const query::Query& q);

  /// Collects and executes one flush. Entered with `lk` held and
  /// leader_active_ set; returns with `lk` re-held.
  void RunLeader(std::unique_lock<std::mutex>* lk);

  const BatcherOptions options_;
  const ExecFn exec_;
  // serve.* handles, resolved once at construction.
  telemetry::Counter& requests_;
  telemetry::Counter& batches_;
  telemetry::Histogram& batch_size_;
  telemetry::Histogram& queue_wait_us_;

  // Submit() calls entered and not returned, inline or queued. Only the
  // inline-or-coalesce choice reads it, so relaxed order suffices.
  std::atomic<int> admitted_{0};

  std::mutex mu_;
  // Split wake channels so an arrival wakes at most the one collecting
  // leader, and a flush wakes followers once — a single condvar would
  // broadcast every waiter on every enqueue (O(n^2) wakes per batch cycle).
  std::condition_variable arrival_cv_;  // signaled once per enqueue
  std::condition_variable done_cv_;     // broadcast after each flush
  std::deque<Request*> queue_;  // requests live on their Submit() stacks
  int inflight_ = 0;            // Coalesce() calls entered and not returned
  int window_peak_ = 0;         // max inflight_ since the last flush take
  bool leader_active_ = false;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_BATCHER_H_
