// Deterministic thread-pool parallelism.
//
// A lazily-initialized global ThreadPool (size from the LCE_THREADS env var,
// default hardware_concurrency) backs two primitives:
//
//   ParallelFor(begin, end, grain, fn)     — fn(chunk_begin, chunk_end) over a
//                                            fixed chunking of [begin, end)
//   ParallelReduce(begin, end, grain, ...) — per-chunk map results combined in
//                                            chunk-index order
//
// Determinism contract (see DESIGN.md §6):
//   * Chunk boundaries depend only on (begin, end, grain) — never on the
//     thread count — so any work whose chunks write disjoint outputs or whose
//     chunk results are combined in index order produces identical output at
//     every thread count.
//   * ChunkSeed(base, chunk) derives an independent Rng seed per chunk, so
//     seeded randomized work stays reproducible at any thread count >= 2.
//   * With LCE_THREADS=1 no worker threads are ever spawned and every
//     primitive degenerates to the plain sequential loop.

#ifndef LCE_UTIL_PARALLEL_H_
#define LCE_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lce {
namespace parallel {

/// Fixed-size pool of `size - 1` worker threads (the caller of ParallelFor is
/// the remaining lane). size <= 1 spawns no threads at all. The destructor
/// drains every submitted task before joining.
class ThreadPool {
 public:
  explicit ThreadPool(int size);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the caller lane (>= 1).
  int size() const { return size_; }

  /// Enqueues a task for the worker threads. With size() <= 1 the task runs
  /// inline. Tasks must not block on other pool tasks.
  void Submit(std::function<void()> task);

 private:
  struct Impl;
  int size_;
  Impl* impl_;  // null when size_ <= 1
};

/// The process-wide pool, created on first use. Size comes from LCE_THREADS
/// (if set to a positive integer) else std::thread::hardware_concurrency().
ThreadPool* GlobalPool();

/// Size of the global pool (>= 1). Cheap after first use.
int ThreadCount();

/// Replaces the global pool with one of `size` threads (<= 0 restores the
/// LCE_THREADS / hardware default). Must not race with in-flight parallel
/// work; intended for tests and benchmarks.
void SetThreadCountForTesting(int size);

/// Derives an independent, well-mixed Rng seed for one chunk of a parallel
/// region from the region's base seed (splitmix64-style finalizer).
inline uint64_t ChunkSeed(uint64_t base_seed, uint64_t chunk_index) {
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (chunk_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace internal {

/// True when a region of `num_chunks` chunks should fan out to the pool:
/// more than one chunk, more than one lane, and not already on a lane of a
/// running region, the caller's lane included (nested regions run inline
/// on the lane that meets them, so the fixed pool never starves).
bool ShouldParallelize(int64_t num_chunks);

/// Pool dispatch for ParallelForChunks; only reached on the fan-out path, so
/// the type erasure costs nothing for inline (sequential) callers.
void ParallelForChunksImpl(
    int64_t begin, int64_t end, int64_t grain, int64_t num_chunks,
    const std::function<void(int64_t, int64_t, int64_t)>& fn);

}  // namespace internal

/// Runs fn(chunk_index, chunk_begin, chunk_end) for every grain-sized chunk
/// of [begin, end). Chunks run concurrently on the global pool; the caller
/// participates and returns after all chunks finish. The first exception
/// thrown by any chunk is rethrown in the caller. Runs inline (in chunk
/// order) when the pool has one lane, when there is a single chunk, or when
/// called from a lane of a running region (no nested fan-out).
template <typename Fn>
void ParallelForChunks(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  if (!internal::ShouldParallelize(num_chunks)) {
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t b = begin + c * grain;
      fn(c, b, b + grain < end ? b + grain : end);
    }
    return;
  }
  internal::ParallelForChunksImpl(begin, end, grain, num_chunks, fn);
}

/// ParallelForChunks without the chunk index: fn(chunk_begin, chunk_end).
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  ParallelForChunks(begin, end, grain,
                    [&fn](int64_t, int64_t b, int64_t e) { fn(b, e); });
}

/// Deterministic reduction: map_chunk(chunk_begin, chunk_end) -> T runs per
/// chunk (concurrently), then combine(acc, chunk_result) folds the results in
/// chunk-index order starting from `init`, so the numeric output is
/// independent of thread scheduling and thread count.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T init,
                 MapFn map_chunk, CombineFn combine) {
  if (end <= begin) return init;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  std::vector<T> results(static_cast<size_t>(num_chunks), init);
  ParallelForChunks(begin, end, grain,
                    [&](int64_t chunk, int64_t b, int64_t e) {
                      results[static_cast<size_t>(chunk)] = map_chunk(b, e);
                    });
  T acc = std::move(init);
  for (T& r : results) acc = combine(std::move(acc), std::move(r));
  return acc;
}

}  // namespace parallel
}  // namespace lce

#endif  // LCE_UTIL_PARALLEL_H_
