#ifndef IBSEG_CORE_RECLUSTER_H_
#define IBSEG_CORE_RECLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

/// \file
/// ReclusterWorker: the background trigger loop that decides WHEN to run
/// an offline re-clustering epoch (docs/ARCHITECTURE.md §9). The serving
/// layer owns the mechanism — ShardedServing::recluster() is synchronous,
/// thread-safe, and leaves queries flowing while the shadow index builds —
/// so the worker is pure policy: poll cheap atomic counters, fire when a
/// threshold trips, never touch serving state otherwise.

namespace ibseg {

class ShardedServing;

/// When to trigger a background recluster. All triggers default to
/// disabled; a worker whose every trigger is disabled never fires (it
/// still polls, so policy can be relaxed later without restarting it).
struct ReclusterPolicy {
  /// Fire when the pending pool (ingested documents whose nearest-centroid
  /// assignment distance exceeded the configured threshold) reaches this
  /// size. 0 disables the trigger. Requires
  /// ReclusterOptions::pending_distance_threshold to be finite, otherwise
  /// the pool never grows and this trigger never trips.
  size_t max_pending = 0;

  /// Fire when this many documents have been ingested since the last
  /// recluster (or since startup/restore). 0 disables the trigger. The
  /// unconditional backstop: even perfectly-assigned ingests drift the
  /// corpus away from the seed clustering eventually.
  uint64_t max_docs_since = 0;

  /// How often the worker re-reads the trigger counters. The poll reads
  /// two relaxed atomics — cheap enough that the default is snappy.
  int poll_interval_ms = 200;
};

/// A polling thread that fires `recluster()` on a serving deployment when
/// a ReclusterPolicy trigger trips.
///
/// The worker holds three closures instead of a backend pointer so the
/// same loop drives the serving layer and, in tests, a fake.
/// Construct with a ShardedServing reference and the
/// closures bind to its pending_pool_size() / docs_since_recluster() /
/// recluster() — the first two are lock-free atomic reads, the last is
/// the synchronous epoch (capture + shadow rebuild + swap).
///
/// Lifecycle: construct, start(), stop(). stop() is idempotent, wakes the
/// poll wait immediately, and JOINS — after it returns no recluster is
/// running and none will start, which is what Server::finish_drain()
/// needs before the final save. The destructor calls stop().
///
/// At most one recluster runs at a time by construction (one worker
/// thread, synchronous call); concurrent manual recluster() calls from
/// other threads are additionally serialized by the serving layer's own
/// job mutex, so a worker plus an admin RECLUSTER command is safe.
class ReclusterWorker {
 public:
  ReclusterWorker(ShardedServing& backend, ReclusterPolicy policy);

  /// Test seam: arbitrary counter/trigger closures.
  ReclusterWorker(std::function<size_t()> pending_pool_size,
                  std::function<uint64_t()> docs_since_recluster,
                  std::function<uint64_t()> recluster,
                  ReclusterPolicy policy);

  ~ReclusterWorker();

  ReclusterWorker(const ReclusterWorker&) = delete;
  ReclusterWorker& operator=(const ReclusterWorker&) = delete;

  /// Spawns the poll thread. Calling start() twice is a no-op.
  void start();

  /// Stops the poll thread and joins it. Blocks until any in-progress
  /// recluster epoch completes. Safe to call repeatedly and without
  /// start().
  void stop();

  /// Completed reclusters this worker has fired (not counting manual
  /// recluster() calls on the backend).
  uint64_t reclusters_fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  /// True when at least one trigger is enabled.
  bool enabled() const {
    return policy_.max_pending > 0 || policy_.max_docs_since > 0;
  }

 private:
  void loop();
  bool should_fire() const;

  std::function<size_t()> pending_pool_size_;
  std::function<uint64_t()> docs_since_recluster_;
  std::function<uint64_t()> recluster_;
  ReclusterPolicy policy_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  ///< guarded by mu_
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> fired_{0};
};

}  // namespace ibseg

#endif  // IBSEG_CORE_RECLUSTER_H_
