// Cross-request micro-batching for the estimation service.
//
// Concurrent clients each submit one query and block for its answer; the
// batcher coalesces whatever is waiting into one EstimateBatch() call so the
// SIMD kernel layer sees N×d matrices instead of N separate 1×d forwards.
// Correctness rests on the kernel bit-identity contract (DESIGN.md §10): a
// batched forward is bit-identical per row to the per-query loop, so
// batching changes latency, never answers.
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
//
// Knobs (read by BatcherOptions::FromEnv):
//   LCE_SERVE_BATCH      "0" disables coalescing: every request executes
//                        alone (the bench's batch-off arm). Default on.
//   LCE_SERVE_BATCH_US   flush deadline in microseconds (default 200).
//   LCE_SERVE_MAX_BATCH  max requests per flush (default 64).

#ifndef LCE_SERVE_BATCHER_H_
#define LCE_SERVE_BATCHER_H_

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

  /// Reads LCE_SERVE_BATCH / LCE_SERVE_MAX_BATCH / LCE_SERVE_BATCH_US;
  /// unset or unparsable values keep the defaults above.
  static BatcherOptions FromEnv();
};

class MicroBatcher {
 public:
  /// Executes one flush: estimates for `queries` in order, plus the model
  /// version the whole batch was answered by (resolved once per flush, so a
  /// concurrent re-register never splits a batch across versions). Called
  /// with no batcher lock held; the callee serializes model execution.
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

  /// Blocks until a flush answers `q`. Safe to call from many threads; with
  /// batching disabled it executes immediately (batch of one).
  Ticket Submit(const query::Query& q);

 private:
  struct Request {
    const query::Query* query = nullptr;
    int64_t enqueue_ns = 0;
    bool done = false;
    Ticket ticket;
  };

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

  std::mutex mu_;
  // Split wake channels so an arrival wakes at most the one collecting
  // leader, and a flush wakes followers once — a single condvar would
  // broadcast every waiter on every enqueue (O(n^2) wakes per batch cycle).
  std::condition_variable arrival_cv_;  // signaled once per enqueue
  std::condition_variable done_cv_;     // broadcast after each flush
  std::deque<Request*> queue_;  // requests live on their Submit() stacks
  int inflight_ = 0;            // Submit() calls entered and not returned
  int window_peak_ = 0;         // max inflight_ since the last flush take
  bool leader_active_ = false;
};

}  // namespace serve
}  // namespace lce

#endif  // LCE_SERVE_BATCHER_H_
