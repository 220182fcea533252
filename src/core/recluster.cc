#include "core/recluster.h"

#include <chrono>
#include <utility>

#include "core/sharded_serving.h"

namespace ibseg {

ReclusterWorker::ReclusterWorker(ShardedServing& backend,
                                 ReclusterPolicy policy)
    : ReclusterWorker([&backend] { return backend.pending_pool_size(); },
                      [&backend] { return backend.docs_since_recluster(); },
                      [&backend] { return backend.recluster(); },
                      policy) {}

ReclusterWorker::ReclusterWorker(std::function<size_t()> pending_pool_size,
                                 std::function<uint64_t()> docs_since_recluster,
                                 std::function<uint64_t()> recluster,
                                 ReclusterPolicy policy)
    : pending_pool_size_(std::move(pending_pool_size)),
      docs_since_recluster_(std::move(docs_since_recluster)),
      recluster_(std::move(recluster)),
      policy_(policy) {
  if (policy_.poll_interval_ms < 1) policy_.poll_interval_ms = 1;
}

ReclusterWorker::~ReclusterWorker() { stop(); }

void ReclusterWorker::start() {
  if (started_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void ReclusterWorker::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_.store(false);
}

bool ReclusterWorker::should_fire() const {
  if (policy_.max_pending > 0 &&
      pending_pool_size_() >= policy_.max_pending) {
    return true;
  }
  if (policy_.max_docs_since > 0 &&
      docs_since_recluster_() >= policy_.max_docs_since) {
    return true;
  }
  return false;
}

void ReclusterWorker::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    // Check OUTSIDE any serving lock (the closures are atomic reads), and
    // run the epoch with mu_ released so stop() can post its request
    // while a recluster is in flight — the next loop iteration sees it.
    bool fire = false;
    lock.unlock();
    fire = should_fire();
    if (fire) {
      recluster_();
      fired_.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
    if (stop_requested_) break;
    // After firing, re-poll immediately: the counters reset at the swap,
    // so a still-tripped trigger means the policy is tighter than one
    // epoch can relieve (e.g. max_docs_since = 0 tail races) — waiting
    // the full interval is still correct, just not necessary.
    cv_.wait_for(lock,
                 std::chrono::milliseconds(policy_.poll_interval_ms),
                 [this] { return stop_requested_; });
  }
}

}  // namespace ibseg
