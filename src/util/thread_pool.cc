#include "util/thread_pool.h"

#include <atomic>

namespace ibseg {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& body) {
  if (count == 0) return;
  // Dynamic chunking: ~4 chunks per worker balances load without excessive
  // queue traffic.
  size_t chunks = std::min(count, num_threads() * 4);
  std::atomic<size_t> next_chunk{0};
  size_t per_chunk = (count + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    submit([&, per_chunk, count] {
      for (;;) {
        size_t chunk = next_chunk.fetch_add(1);
        size_t begin = chunk * per_chunk;
        if (begin >= count) return;
        size_t end = std::min(begin + per_chunk, count);
        for (size_t i = begin; i < end; ++i) body(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace ibseg
