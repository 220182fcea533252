#ifndef IBSEG_NET_SERVER_H_
#define IBSEG_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/recluster.h"
#include "core/sharded_serving.h"
#include "core/tenant_registry.h"
#include "net/frame.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace ibseg {
namespace net {

/// \brief Tuning knobs of the network front-end. Every limit here is part
/// of the documented operator surface — docs/OPERATIONS.md explains how
/// to size them and which ibseg_net_* metric watches each one.
struct ServerOptions {
  /// Address to bind (default loopback; use "0.0.0.0" to serve remotely).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back via Server::port()
  /// — the test/bench path, and ibseg_server --port-file).
  uint16_t port = 0;

  /// Worker threads executing requests against the backend. Queries run
  /// under the backend's shared locks, so workers scale reads; sizing
  /// guidance in docs/OPERATIONS.md §3.
  int num_workers = 2;

  /// Maximum simultaneously open client connections. The accept loop
  /// answers the connection beyond the limit with ERROR/OVERLOADED and
  /// closes it (counted in ibseg_net_rejected_total{reason="conn_limit"}).
  size_t max_connections = 256;

  /// Admission control: maximum requests admitted (queued + executing)
  /// across all connections. A request arriving above the bound is
  /// answered immediately with ERROR/OVERLOADED — never silently dropped
  /// (ibseg_net_rejected_total{reason="overloaded"}).
  size_t max_in_flight = 64;

  /// Per-connection write backpressure: while a connection's pending
  /// output exceeds this, the server neither reads nor parses further
  /// requests from it (a client that pipelines but does not drain
  /// responses throttles only itself).
  size_t max_output_bytes = 4u * 1024u * 1024u;

  /// Deadline for a request to *start executing*. A request that waited
  /// in the dispatch queue longer than this is answered with
  /// ERROR/TIMEOUT instead of being executed
  /// (ibseg_net_rejected_total{reason="timeout"}). Requests already
  /// executing are never cancelled mid-scoring.
  double request_timeout_sec = 5.0;

  /// Connections with no traffic in either direction for this long are
  /// closed (0 disables). Keeps abandoned sockets from pinning
  /// max_connections slots.
  double idle_timeout_sec = 300.0;

  /// Directory the SAVE command persists to, and the drain path's final
  /// publication barrier (ShardedServing::save: snapshot every shard,
  /// commit the manifest, truncate the ingest log). Empty disables SAVE
  /// (answered with ERROR/UNSUPPORTED) and skips the save-on-drain.
  std::string state_dir;

  /// Background re-clustering triggers (docs/ARCHITECTURE.md §9). With
  /// any trigger enabled the server owns a ReclusterWorker: started with
  /// the listener, stopped (joined, any in-flight epoch completed) during
  /// drain BEFORE the final save. Admin clients can also force an epoch
  /// at any time with the RECLUSTER command, worker or not.
  ReclusterPolicy recluster;

  /// Test-only: artificial delay inside every request handler, to make
  /// overload/timeout windows deterministic in tests. Never set in
  /// production.
  int debug_handler_delay_ms = 0;

  /// Replica role: reject the mutating commands (ADD_POST, ADD_POSTS,
  /// RECLUSTER) with ERROR/UNSUPPORTED. Replicas mutate only through
  /// applied WAL segments — a local ingest would fork their history.
  /// SAVE/DRAIN stay available (they persist the replica's own state),
  /// and SUBSCRIBE_WAL stays available too (chained replication).
  bool read_only = false;

  /// Per-tenant admission cap: maximum requests admitted (queued +
  /// executing) for any single tenant. 0 (the default) means no tighter
  /// bound than max_in_flight. With multiple tenants, setting this below
  /// max_in_flight guarantees a flooding tenant leaves admission slots
  /// for the others — the first half of the fairness story; the
  /// deficit-round-robin dequeue is the second
  /// (ibseg_net_rejected_total{reason="overloaded"} counts both caps).
  size_t tenant_max_in_flight = 0;

  /// Deficit-round-robin quantum, in frame bytes per scheduling turn.
  /// Workers dequeue per-tenant queues round-robin; each turn a tenant's
  /// deficit grows by this many bytes and requests are only served while
  /// the deficit covers their frame size (header + payload). Cheap
  /// QUERY frames cost ~20 bytes, jumbo ADD_POSTS batches cost their
  /// full payload — so a tenant streaming megabyte batches consumes its
  /// turns proportionally and cannot starve light tenants
  /// (docs/ARCHITECTURE.md §11).
  size_t fair_quantum_bytes = 8192;
};

/// \brief The TCP serving front-end: speaks the docs/PROTOCOL.md wire
/// protocol and dispatches into a ShardedServing backend.
///
/// Threading model (docs/ARCHITECTURE.md §8): one I/O thread owns every
/// socket's lifecycle and runs a poll(2) readiness loop — accepting,
/// reading frames into per-connection buffers, flushing what the workers
/// could not send, enforcing the connection limit, write backpressure and
/// idle timeouts. Complete well-framed requests are handed to a fixed
/// worker pool through a bounded queue (the max_in_flight admission
/// bound); workers execute against the backend (queries under its shared
/// locks, ingests through its global publication path), encode the
/// response and write it to the socket themselves. A worker wakes the I/O
/// thread (through a self-pipe) only when bytes are left unsent, the
/// connection is closing, the server is draining, or pipelined input is
/// parked behind the request. At most one request per connection is
/// admitted at a time: responses are therefore trivially in request
/// order, and a pipelining client's buffered requests are parsed
/// one-by-one as its responses drain (PROTOCOL.md §6).
///
/// Lifecycle: construct over a backend (not owned), start(), then either
/// wait_drained() — blocks until a DRAIN command or drain() call — or
/// drain() directly (the SIGTERM handler path in ibseg_server). Drain
/// stops accepting, answers new requests with ERROR/DRAINING, lets
/// in-flight requests finish, flushes every output buffer, closes all
/// sockets, stops the workers, and finally — when state_dir is set —
/// runs ShardedServing::save(state_dir) under the global publication
/// lock, so every acknowledged ingest is durable before drain() returns
/// (the drain-loses-nothing test's contract).
class Server {
 public:
  /// \param backend the serving deployment requests execute against; not
  ///   owned, must outlive the server
  /// \param options tuning knobs (copied)
  Server(ShardedServing* backend, ServerOptions options);

  /// Multi-tenant serving: requests route to the tenant their connection
  /// bound with TENANT_OPEN (default tenant otherwise — pre-tenant
  /// clients keep working byte-identically). SAVE and the snapshot
  /// bootstrap serve each tenant's own state directory
  /// (registry->state_dir), options.state_dir is ignored, and the drain
  /// barrier saves EVERY tenant. The recluster worker (when enabled)
  /// watches the default tenant only; other tenants recluster via the
  /// wire command on a bound connection.
  /// \param tenants the tenant set; not owned, must outlive the server
  /// \param options tuning knobs (copied)
  Server(TenantRegistry* tenants, ServerOptions options);

  /// Drains (if still running) and releases everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens and spawns the I/O thread + worker pool.
  /// Returns false (with errno-style detail on stderr) when the socket
  /// cannot be bound.
  bool start();

  /// \brief The bound TCP port (valid after start(); resolves port 0).
  uint16_t port() const { return port_; }

  /// \brief True once a drain was initiated (DRAIN command, drain(), or
  /// destructor).
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// \brief Initiates a graceful drain (idempotent, callable from any
  /// non-worker thread and from signal-handler-adjacent contexts via
  /// Server::drain on the main thread) and blocks until the drain is
  /// complete — network quiesced, workers joined, state saved.
  void drain();

  /// \brief Blocks until a drain completes, whichever side initiates it
  /// (a remote DRAIN command or a local drain() call). The serve loop of
  /// ibseg_server is exactly this call.
  void wait_drained();

 private:
  struct Connection;
  struct Work;
  struct Metrics;
  struct TenantQueue;

  void io_loop();
  void worker_loop();

  /// Accepts as many pending connections as the limit allows; beyond it,
  /// answers ERROR/OVERLOADED and closes immediately.
  void accept_ready();

  /// Reads available bytes, then parses + dispatches complete frames
  /// while the connection may admit work (no in-flight request, output
  /// under the backpressure bound).
  void connection_readable(const std::shared_ptr<Connection>& conn);

  /// Parses frames out of conn->input while the connection may admit
  /// work, and parks input left behind an in-flight request (the worker
  /// then wakes the I/O thread). Returns false when the stream is
  /// unrecoverable (malformed frame) and the connection must close.
  bool parse_frames(const std::shared_ptr<Connection>& conn);

  /// Admission + queueing of one well-framed request. TENANT_OPEN /
  /// TENANT_LIST execute inline here on the I/O thread (tenant map
  /// lookups, no corpus work) — which makes the connection's tenant binding
  /// I/O-thread-private state, no lock needed.
  void dispatch(const std::shared_ptr<Connection>& conn, MsgType type,
                std::string payload);

  /// Deficit-round-robin dequeue across the per-tenant queues. Caller
  /// holds queue_mu_ and guarantees queued_total_ > 0.
  Work pop_next_locked();

  /// Executes one request against the backend (worker context).
  void execute(const Work& work, MsgType* type, std::string* payload);

  /// Appends an encoded frame to the connection's output (any thread).
  void send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                  std::string_view payload);

  void send_error(const std::shared_ptr<Connection>& conn, ErrCode code,
                  const std::string& message);

  void close_connection(const std::shared_ptr<Connection>& conn);

  /// Marks drain as requested and wakes the I/O thread (lock-free; safe
  /// from workers).
  void request_drain();

  /// Runs the quiesce-join-save tail of a drain exactly once.
  void finish_drain();

  void wake_io();

  /// Adds `name`'s scheduling state (construction only).
  void add_tenant(const std::string& name, ShardedServing* backend);

  /// The state directory SAVE and the snapshot bootstrap serve for a
  /// tenant; empty when there is none.
  std::string state_dir(const TenantQueue& tenant) const;

  ShardedServing* backend_;
  /// Non-null in multi-tenant mode; backend_ is then the default
  /// tenant's backend. The tenant set (and thus every map below keyed by
  /// tenant name) is fixed at construction.
  TenantRegistry* tenants_ = nullptr;
  ServerOptions options_;
  uint16_t port_ = 0;

  /// Present iff options_.recluster enables a trigger; lifecycle bound to
  /// start()/finish_drain().
  std::unique_ptr<ReclusterWorker> recluster_worker_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: [0] read (polled), [1] write

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> net_quiesced_{false};
  std::atomic<bool> workers_stop_{false};

  /// Admitted (queued + executing) request count — the admission bound.
  std::atomic<size_t> in_flight_{0};

  /// Connections, keyed by fd. Owned by the I/O thread; the map itself is
  /// only touched there. Workers hold shared_ptrs and touch only the
  /// mutex-guarded output side of a Connection (and its two flags).
  std::map<int, std::shared_ptr<Connection>> connections_;

  /// Per-tenant scheduling state. The worker queue is one FIFO per
  /// tenant plus a round-robin ring of tenants with queued work;
  /// pop_next_locked() implements deficit round robin over the ring
  /// (docs/ARCHITECTURE.md §11). The map's KEY SET is fixed at
  /// construction (one entry per tenant), so connections and requests
  /// hold a TenantQueue* for their routing, and the first three fields,
  /// immutable after construction, are read without a lock. The rest is
  /// guarded by queue_mu_.
  struct TenantQueue {
    std::string name;                   ///< the tenant
    ShardedServing* backend = nullptr;  ///< its corpus
    obs::Histogram* queue_seconds = nullptr;  ///< ibseg_tenant_queue_seconds
    std::deque<Work> queue;
    size_t deficit = 0;    ///< DRR byte budget carried into this turn
    size_t in_flight = 0;  ///< admitted (queued + executing) requests
    bool active = false;   ///< true iff present in active_
  };
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::map<std::string, TenantQueue> tenant_queues_;
  std::deque<TenantQueue*> active_;  ///< DRR ring, guarded by queue_mu_
  size_t queued_total_ = 0;         ///< guarded by queue_mu_

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool drain_finishing_ = false;  ///< guarded by lifecycle_mu_
  bool drain_finished_ = false;   ///< guarded by lifecycle_mu_

  std::unique_ptr<Metrics> metrics_;
};

}  // namespace net
}  // namespace ibseg

#endif  // IBSEG_NET_SERVER_H_
