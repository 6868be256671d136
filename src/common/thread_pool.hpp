#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pphe {

/// Fixed-size worker pool used to run per-residue work of the RNS
/// representation in parallel (the parallelism the paper's Fig. 5 relies on).
///
/// With `num_threads == 0` (or 1) the pool degenerates to inline execution so
/// single-core machines pay no synchronization overhead. The benches report
/// wall time measured on global(), which has one worker per hardware thread.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 means inline execution).
  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) and blocks until all iterations finish.
  /// Iterations must be independent. Exceptions from iterations are rethrown
  /// (the first one observed) after the loop completes.
  ///
  /// Work is claimed in chunks of chunk_size(count, size()) iterations per
  /// atomic increment (4 chunks per participant), so large flat loops do not
  /// serialize on the shared index, while small channel-count loops keep
  /// per-iteration stealing for balance.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Iterations claimed per atomic fetch_add by parallel_for: count split in
  /// ~4 chunks per participant (workers + the calling thread), at least 1.
  /// Exposed so tests can pin the dispatch arithmetic deterministically.
  static std::size_t chunk_size(std::size_t count, std::size_t workers) {
    return count / (4 * (workers + 1)) + 1;
  }

  /// Cumulative helper tasks enqueued by parallel_for since construction
  /// (at most min(workers, chunks) per call): the queue-pressure statistic
  /// the contention regression test keys on.
  std::uint64_t tasks_enqueued() const {
    return tasks_enqueued_.load(std::memory_order_relaxed);
  }

  /// Hardware concurrency, at least 1.
  static std::size_t default_thread_count();

  /// Process-wide pool shared by library internals.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_enqueued_{0};
};

}  // namespace pphe
