#ifndef IBSEG_REPLICATION_REPLICA_H_
#define IBSEG_REPLICATION_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "core/serving.h"
#include "core/sharded_serving.h"
#include "net/client.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace ibseg {
namespace repl {

/// \brief Configuration of one read replica (docs/ARCHITECTURE.md §10,
/// docs/OPERATIONS.md §7).
struct ReplicaOptions {
  /// Leader address (the ibseg_server to follow).
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;

  /// The replica's own state directory — REQUIRED. Bootstrap restores
  /// from it when it holds a committed manifest, and fetches the leader's
  /// snapshot into it otherwise; every applied segment is logged in its
  /// ingest log, so a replica restart (and a promotion) recovers locally.
  std::string dir;

  /// Stable name for the leader's per-replica lag gauge
  /// (ibseg_leader_replica_lag_frames{replica="<id>"}).
  std::string replica_id = "replica";

  /// Per-pull segment caps, forwarded in SUBSCRIBE_WAL. One frame may
  /// exceed max_bytes (progress guarantee — see PROTOCOL.md §4.10).
  uint32_t max_frames = 256;
  uint32_t max_bytes = 4u * 1024u * 1024u;

  /// Poll cadence while caught up; a full segment is followed up
  /// immediately (catch-up runs at transfer speed, not poll speed).
  int poll_interval_ms = 50;

  /// Connect/IO deadline for every leader call.
  double connect_timeout_sec = 10.0;

  /// MUST equal the leader's build options: replay is deterministic only
  /// under identical analysis/segmentation/clustering parameters.
  PipelineOptions pipeline;

  /// Replica-local serving knobs (cache etc.). num_shards and persistence
  /// are dictated by the restored directory, not by this struct.
  ServingOptions serving;
};

/// \brief A WAL-shipped read replica: bootstraps from the leader's
/// snapshot (or its own directory), then pulls WAL segments over the
/// wire and applies them through the same deterministic replay path a
/// restart uses — so at every frame boundary the replica's backend is
/// bit-identical to the leader at that epoch, and QUERY/ASK answers
/// served from it are byte-for-byte the leader's answers.
///
/// Threading: step() is serialized internally; start_polling() runs it on
/// a background thread. The backend itself is a ShardedServing — fully
/// concurrent for queries, so a net::Server can serve from it (read-only
/// mode) while segments apply.
class Replica {
 public:
  /// Outcome of one pull-apply-ack cycle.
  enum class StepStatus {
    kApplied,         ///< frames applied; more may be pending — pull again
    kCaughtUp,        ///< at the leader's epoch (zero lag)
    kSnapshotNeeded,  ///< cursor not servable — wipe dir and re-bootstrap
    kTransportError,  ///< leader unreachable; retry after the poll interval
    kDiverged,        ///< histories disagree — operator intervention
  };

  /// \brief Builds the replica's backend: restore(options.dir) when the
  /// directory holds a committed manifest, otherwise SNAPSHOT_LIST +
  /// SNAPSHOT_CHUNK from the leader (every file verified against its
  /// listed size and CRC-32; shard files land before the manifest, so a
  /// crash mid-fetch leaves a directory bootstrap simply redoes).
  /// \return nullptr when options.dir is empty, the fetch fails, or the
  ///   fetched/existing directory does not restore
  static std::unique_ptr<Replica> bootstrap(ReplicaOptions options);

  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// The replica's serving backend (bit-identical to the leader at every
  /// applied frame boundary). Outlives nothing — the Replica owns it.
  ShardedServing& backend() { return *backend_; }
  const ShardedServing& backend() const { return *backend_; }

  /// \brief One pull-apply-ack cycle against the leader: SUBSCRIBE_WAL at
  /// the current epoch/generation, strict-parse the segment, apply it,
  /// mirror any recluster boundary, update the lag gauges, WAL_ACK the
  /// new position.
  StepStatus step();

  /// \brief Runs step() on a background thread: back-to-back while
  /// catching up, every poll_interval_ms once caught up (and after
  /// transport errors — the thread reconnects forever; kSnapshotNeeded
  /// and kDiverged stop the loop, readable via last_status()).
  void start_polling();

  /// \brief Stops and joins the polling thread (idempotent).
  void stop();

  /// \brief Crash promotion: stops polling, then drains the dead leader's
  /// on-disk tail into this backend (ShardedServing::catch_up_from_dir).
  /// After true, this replica holds every acknowledged leader ingest and
  /// can serve as the new leader over the SAME directory semantics.
  bool promote(const std::string& leader_dir);

  /// Leader epoch observed on the most recent successful pull.
  uint64_t last_leader_seq() const {
    return leader_seq_.load(std::memory_order_relaxed);
  }

  /// Most recent step() outcome (kCaughtUp before any step).
  StepStatus last_status() const {
    return last_status_.load(std::memory_order_relaxed);
  }

 private:
  Replica(ReplicaOptions options, std::unique_ptr<ShardedServing> backend);

  bool ensure_client();
  StepStatus step_locked();
  void update_lag(uint64_t leader_seq);

  ReplicaOptions options_;
  std::unique_ptr<ShardedServing> backend_;

  std::mutex step_mu_;                  ///< serializes step()/promote()
  std::unique_ptr<net::Client> client_; ///< guarded by step_mu_
  /// Last instant the replica was at the leader's epoch (guarded by
  /// step_mu_); seeds the seconds-lag gauge. Starts at construction time.
  obs::Clock::time_point last_caught_up_;

  std::atomic<uint64_t> leader_seq_{0};
  std::atomic<StepStatus> last_status_{StepStatus::kCaughtUp};

  obs::Gauge& lag_frames_;
  obs::Gauge& lag_seconds_;
  obs::Counter& applied_total_;

  std::thread poll_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace repl
}  // namespace ibseg

#endif  // IBSEG_REPLICATION_REPLICA_H_
