#ifndef IBSEG_UTIL_THREAD_POOL_H_
#define IBSEG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ibseg {

/// Fixed-size worker pool. The paper segments its 1.5M-post corpus in
/// parallel chunks (Sec. 9.2.4); `parallel_for` reproduces that pattern for
/// the offline segmentation phase.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  size_t num_threads() const { return workers_.size(); }

  /// Runs body(i) for i in [0, count) across the pool and waits.
  /// `body` must be safe to invoke concurrently for distinct indices.
  void parallel_for(size_t count, const std::function<void(size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace ibseg

#endif  // IBSEG_UTIL_THREAD_POOL_H_
