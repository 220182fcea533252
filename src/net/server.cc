#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <utility>

#include "seg/document.h"
#include "storage/format_util.h"
#include "storage/shard_manifest.h"

namespace ibseg {
namespace net {

namespace {

/// During drain, a connection whose response bytes the peer refuses to
/// read is force-closed after this long — a dead client must not be able
/// to hold the whole process open (docs/OPERATIONS.md §4).
constexpr double kDrainFlushTimeoutSec = 5.0;

/// poll(2) tick; bounds how late idle/drain timeouts can fire.
constexpr int kPollTimeoutMs = 100;

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// External ASK posts get an id far above any real corpus id; the id only
/// labels the transient Document, nothing is ingested (same convention as
/// ibseg_cli's ask command).
constexpr DocId kExternalQueryId = 1u << 30;

/// The exact file set a committed save leaves behind (and bootstrap must
/// fetch): the manifest plus one generation-qualified snapshot per shard.
/// Re-derived from the manifest on every SNAPSHOT_LIST/SNAPSHOT_CHUNK, so
/// chunk requests can never name a path outside the state directory.
std::vector<std::string> snapshot_file_names(const ShardManifest& m) {
  std::vector<std::string> names;
  names.push_back("MANIFEST");
  for (uint32_t s = 0; s < m.num_shards; ++s) {
    std::string name = "shard-" + std::to_string(s) + "/snapshot";
    if (m.generation != 0) name += ".g" + std::to_string(m.generation);
    name += ".v2";
    names.push_back(std::move(name));
  }
  return names;
}

}  // namespace

/// One client connection. The I/O thread owns the input side (buffer,
/// parsing, tenant binding, lifecycle). The output side is guarded by
/// out_mu and written to the socket by two parties: the I/O thread
/// flushes its inline answers and whatever a POLLOUT lets through, and
/// the worker that executed a request appends its answer and sends it
/// itself. close_connection closes `fd` under out_mu, so a holder of
/// out_mu that sees `closed` false writes to this client's socket, never
/// to a newer connection that reuses the descriptor.
struct Server::Connection {
  Connection(int fd_in, TenantQueue* tenant_in)
      : fd(fd_in), tenant(tenant_in) {}

  int fd;
  std::string input;  ///< buffered unparsed request bytes (I/O thread only)
  /// Tenant this connection is bound to (TENANT_OPEN; PROTOCOL.md §4.14).
  /// Written and read only on the I/O thread — dispatch copies it into
  /// the Work, so workers never look at this.
  TenantQueue* tenant;
  /// One admitted request outstanding. Set by dispatch; cleared by the
  /// worker under out_mu, right after it appends the answer.
  std::atomic<bool> in_flight{false};
  /// The I/O thread holds buffered input behind the in-flight request and
  /// no longer polls for input, so the worker must wake it (parse_frames).
  std::atomic<bool> parked{false};
  std::atomic<bool> closed{false};

  std::mutex out_mu;
  std::string out;        ///< encoded, not-yet-written response bytes
  size_t out_offset = 0;  ///< bytes of `out` already written
  bool closing = false;   ///< close once nothing is in flight or unsent
  obs::Clock::time_point last_activity = obs::Clock::now();  ///< idle clock

  /// Writes as much of `out` as the socket takes; a failed write marks
  /// the connection closing (the sweep closes it). Caller holds out_mu.
  void flush_locked() {
    while (out_offset < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_offset, out.size() - out_offset,
                         MSG_NOSIGNAL);
      if (n > 0) {
        out_offset += static_cast<size_t>(n);
        last_activity = obs::Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      closing = true;  // broken pipe
      return;
    }
    out.clear();
    out_offset = 0;
  }
};

/// One admitted request travelling from the I/O thread to a worker. The
/// tenant is resolved at dispatch time on the I/O thread, so workers
/// never read mutable connection state.
struct Server::Work {
  std::shared_ptr<Connection> conn;
  MsgType type = MsgType::kPing;
  std::string payload;
  obs::Clock::time_point enqueued;
  TenantQueue* tenant = nullptr;  ///< routing: queue, backend and name
  size_t cost = 0;                ///< DRR cost: frame bytes
};

/// The ibseg_net_* instrument set (docs/OPERATIONS.md §5 catalogs it).
/// Registered eagerly so an idle server still renders every series at
/// zero — the same discipline as the serving-layer metrics.
struct Server::Metrics {
  Metrics()
      : connections(obs::MetricsRegistry::global().gauge(
            "ibseg_net_connections",
            "Currently open client connections on the network front-end.")),
        request_seconds(obs::MetricsRegistry::global().histogram(
            "ibseg_net_request_seconds",
            "Queue wait plus execution time of admitted requests, in "
            "seconds.")) {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    static constexpr MsgType kCommands[] = {
        MsgType::kPing,         MsgType::kQuery,   MsgType::kAsk,
        MsgType::kAddPost,      MsgType::kAddPosts, MsgType::kSave,
        MsgType::kMetrics,      MsgType::kDrain,    MsgType::kRecluster,
        MsgType::kSubscribeWal, MsgType::kWalAck,   MsgType::kSnapshotList,
        MsgType::kSnapshotChunk, MsgType::kTenantOpen, MsgType::kTenantList};
    for (MsgType cmd : kCommands) {
      requests[static_cast<uint8_t>(cmd)] = &r.counter(
          "ibseg_net_requests_total",
          "Well-framed requests received, by command.",
          {{"cmd", msg_type_name(cmd)}});
    }
    static constexpr const char* kReasons[] = {
        "bad_frame", "bad_request", "overloaded",
        "draining",  "timeout",     "conn_limit", "unknown_tenant"};
    for (const char* reason : kReasons) {
      rejected[reason] = &r.counter(
          "ibseg_net_rejected_total",
          "Requests and connections refused before execution, by reason.",
          {{"reason", reason}});
    }
  }

  void reject(const char* reason) { rejected.at(reason)->inc(); }

  obs::Gauge& connections;
  obs::Histogram& request_seconds;
  std::map<uint8_t, obs::Counter*> requests;
  std::map<std::string, obs::Counter*> rejected;
};

// The wire-level name bound and the registry's directory-name bound must
// agree, or a name the codec accepts could be unopenable (or vice versa).
static_assert(TenantRegistry::kMaxNameBytes == kMaxTenantNameBytes,
              "core and wire tenant-name limits diverged");

Server::Server(TenantRegistry* tenants, ServerOptions options)
    : Server(tenants->default_backend(), std::move(options)) {
  tenants_ = tenants;
  // One queue + one wait histogram per tenant, eagerly — the tenant set
  // is fixed, so an idle tenant still renders its series at zero.
  for (const std::string& name : tenants_->names()) {
    add_tenant(name, tenants_->find(name));
  }
}

Server::Server(ShardedServing* backend, ServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      metrics_(std::make_unique<Metrics>()) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_in_flight < 1) options_.max_in_flight = 1;
  // Single-tenant mode still schedules through the (single) default
  // tenant queue — one code path, no special cases.
  add_tenant(TenantRegistry::kDefaultTenant, backend_);
}

void Server::add_tenant(const std::string& name, ShardedServing* backend) {
  TenantQueue& tq = tenant_queues_[name];
  tq.name = name;
  tq.backend = backend;
  tq.queue_seconds = &obs::MetricsRegistry::global().histogram(
      "ibseg_tenant_queue_seconds",
      "Dispatch-queue wait of admitted requests, by tenant (the "
      "fairness scheduler's observable).",
      {{"tenant", name}});
}

std::string Server::state_dir(const TenantQueue& tenant) const {
  return tenants_ != nullptr ? tenants_->state_dir(tenant.name)
                             : options_.state_dir;
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) drain();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

bool Server::start() {
  if (::pipe(wake_fds_) != 0 || !set_nonblocking(wake_fds_[0]) ||
      !set_nonblocking(wake_fds_[1])) {
    std::perror("ibseg_server: pipe");
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("ibseg_server: socket");
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    std::fprintf(stderr, "ibseg_server: bad bind address %s\n",
                 options_.bind_address.c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
    std::perror("ibseg_server: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  started_.store(true, std::memory_order_release);
  if (ReclusterPolicy p = options_.recluster;
      p.max_pending > 0 || p.max_docs_since > 0) {
    recluster_worker_ = std::make_unique<ReclusterWorker>(*backend_, p);
    recluster_worker_->start();
  }
  io_thread_ = std::thread([this] { io_loop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::wake_io() {
  char byte = 1;
  // A full pipe already guarantees a pending wake; EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  wake_io();
}

void Server::drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  request_drain();
  finish_drain();
}

void Server::wait_drained() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    // Wait for *someone* to initiate a drain (DRAIN command, another
    // thread's drain() call) ...
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] {
      return draining_.load(std::memory_order_acquire);
    });
  }
  // ... then make sure the tail work runs (first caller does it).
  finish_drain();
}

void Server::finish_drain() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    if (drain_finished_) return;
    if (drain_finishing_) {
      lifecycle_cv_.wait(lock, [this] { return drain_finished_; });
      return;
    }
    drain_finishing_ = true;
  }

  // Network side first: the I/O thread exits once nothing is in flight
  // and every output buffer is flushed (or its flush deadline passed).
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [this] {
      return net_quiesced_.load(std::memory_order_acquire);
    });
  }
  io_thread_.join();

  workers_stop_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // Quiesce the background recluster loop before the save: stop() joins,
  // so after it no shadow rebuild is running and none will start — the
  // saved generation is whichever epoch last swapped in, never a torn
  // intermediate (reclusters are atomic anyway; this just pins WHICH
  // generation the drain persists).
  if (recluster_worker_ != nullptr) {
    recluster_worker_->stop();
    recluster_worker_.reset();
  }

  // The final publication barrier: with a state dir configured, persist
  // every acknowledged ingest (snapshot + manifest commit + WAL
  // truncation) before reporting the drain complete. In registry mode
  // every tenant is saved — each into its own tenant-<name> directory.
  if (tenants_ != nullptr) {
    if (!tenants_->save_all()) {
      std::fprintf(stderr, "ibseg_server: drain-time tenant save failed\n");
    }
  } else if (!options_.state_dir.empty()) {
    if (!backend_->save(options_.state_dir)) {
      std::fprintf(stderr, "ibseg_server: drain-time save to %s failed\n",
                   options_.state_dir.c_str());
    }
  }

  started_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    drain_finished_ = true;
  }
  lifecycle_cv_.notify_all();
}

void Server::io_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool drain_seen = false;
  obs::Clock::time_point drain_started{};

  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_seen) {
      drain_seen = true;
      drain_started = obs::Clock::now();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    // A worker finishing its request may have unblocked parsing of
    // already-buffered pipelined frames (it woke us because they were
    // parked); give every eligible connection a parse pass before
    // sleeping.
    for (auto& [fd, conn] : connections_) {
      if (!conn->closed.load(std::memory_order_acquire) &&
          !conn->in_flight.load(std::memory_order_acquire) &&
          !conn->input.empty()) {
        if (!parse_frames(conn)) close_connection(conn);
      }
    }

    const obs::Clock::time_point now = obs::Clock::now();

    // Idle timeout + deferred closes + drain force-close sweep. in_flight
    // is read under out_mu, where the worker appends its answer before
    // clearing it, so a finished request's answer is never missed.
    for (auto& [fd, conn] : connections_) {
      if (conn->closed.load(std::memory_order_acquire)) continue;
      bool closing;
      bool busy;
      size_t pending;
      obs::Clock::time_point last_activity;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        closing = conn->closing;
        busy = conn->in_flight.load(std::memory_order_relaxed);
        pending = conn->out.size() - conn->out_offset;
        last_activity = conn->last_activity;
      }
      if (closing && pending == 0 && !busy) {
        close_connection(conn);
      } else if (options_.idle_timeout_sec > 0 && !closing && pending == 0 &&
                 !busy &&
                 obs::seconds_between(last_activity, now) >
                     options_.idle_timeout_sec) {
        close_connection(conn);
      } else if (drain_seen && pending > 0 &&
                 obs::seconds_between(drain_started, now) >
                     kDrainFlushTimeoutSec) {
        close_connection(conn);
      }
    }
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second->closed.load(std::memory_order_acquire)) {
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }

    // Drain exit: nothing admitted, nothing buffered, nothing half-read.
    // A worker releases its admission slot before it appends the answer,
    // so each connection's in_flight and output are read together, under
    // out_mu.
    if (drain_seen && in_flight_.load(std::memory_order_acquire) == 0) {
      bool flushed = true;
      for (auto& [fd, conn] : connections_) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->out_offset < conn->out.size() ||
            conn->in_flight.load(std::memory_order_relaxed)) {
          flushed = false;
          break;
        }
      }
      if (flushed) break;
    }

    fds.clear();
    polled.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    const size_t first_conn = fds.size();
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        const size_t pending = conn->out.size() - conn->out_offset;
        if (pending > 0) events |= POLLOUT;
        // Input stays polled during a request while the buffer is empty,
        // so the client's next request or its close needs no wake from
        // the worker; buffered input waits parked for the answer.
        if (!conn->closing && pending < options_.max_output_bytes &&
            (conn->input.empty() ||
             !conn->in_flight.load(std::memory_order_relaxed))) {
          events |= POLLIN;
        }
      }
      if (events == 0) continue;
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    ::poll(fds.data(), fds.size(), kPollTimeoutMs);

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (listen_fd_ >= 0 && fds.size() > 1 && fds[1].fd == listen_fd_ &&
        (fds[1].revents & POLLIN) != 0) {
      accept_ready();
    }
    for (size_t i = first_conn; i < fds.size(); ++i) {
      const std::shared_ptr<Connection>& conn = polled[i - first_conn];
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        close_connection(conn);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->flush_locked();
      }
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        connection_readable(conn);
      }
    }
  }

  for (auto& [fd, conn] : connections_) {
    if (!conn->closed.load(std::memory_order_acquire)) {
      close_connection(conn);
    }
  }
  connections_.clear();

  net_quiesced_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
  }
  lifecycle_cv_.notify_all();
}

void Server::accept_ready() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: done for this tick
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (connections_.size() >= options_.max_connections) {
      // Explicit rejection, never a silent drop: best-effort OVERLOADED
      // response, then close (PROTOCOL.md §6).
      metrics_->reject("conn_limit");
      std::string payload, frame;
      encode_error({ErrCode::kOverloaded, "connection limit reached"},
                   &payload);
      encode_frame(MsgType::kError, payload, &frame);
      [[maybe_unused]] ssize_t n =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(
        fd, &tenant_queues_.at(TenantRegistry::kDefaultTenant));
    connections_.emplace(fd, std::move(conn));
    metrics_->connections.set(static_cast<double>(connections_.size()));
  }
}

void Server::connection_readable(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  bool got = false;
  bool eof = false;
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->input.append(buf, static_cast<size_t>(n));
      got = true;
      // One read chunk may complete many frames but at most one request is
      // admitted; stop pulling more bytes once a request is in flight so
      // the input buffer stays bounded by the socket buffer + one frame. A
      // short read emptied the socket: another would only return EAGAIN.
      if (conn->in_flight.load(std::memory_order_acquire) ||
          static_cast<size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n == 0) {  // peer closed, or half-closed its side
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn);
    return;
  }
  if (got) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->last_activity = obs::Clock::now();
  }
  if (!parse_frames(conn)) {
    close_connection(conn);
    return;
  }
  if (eof) {
    // A half-closed client still reads: let the admitted request answer,
    // then the sweep closes once nothing is in flight or unsent.
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      busy = conn->in_flight.load(std::memory_order_relaxed) ||
             conn->out_offset < conn->out.size();
      conn->closing = true;
    }
    if (!busy) close_connection(conn);
  }
}

bool Server::parse_frames(const std::shared_ptr<Connection>& conn) {
  while (true) {
    if (conn->in_flight.load()) {
      if (conn->input.empty()) return true;
      // Park the buffered input behind the in-flight request: set the
      // flag, then re-read in_flight. The worker clears in_flight, then
      // reads the flag (all seq_cst), so either it sees the flag and wakes
      // this thread, or this thread sees in_flight cleared and parses now.
      conn->parked.store(true);
      if (conn->in_flight.load()) return true;
    }
    conn->parked.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->closing) return true;
      if (conn->out.size() - conn->out_offset >= options_.max_output_bytes) {
        return true;  // backpressure: resume once the client drains
      }
    }
    FrameHeader header;
    DecodeStatus status = decode_frame_header(
        reinterpret_cast<const uint8_t*>(conn->input.data()),
        conn->input.size(), &header);
    if (status == DecodeStatus::kNeedMore) return true;
    if (status == DecodeStatus::kMalformed) {
      // Framing is lost; the only safe recovery is closing (PROTOCOL.md
      // §2). No error response — we cannot know where a reply would land
      // in the byte stream the client thinks it is speaking.
      metrics_->reject("bad_frame");
      return false;
    }
    const size_t total = kFrameHeaderBytes + header.payload_len;
    if (conn->input.size() < total) return true;  // payload still arriving
    std::string payload = conn->input.substr(kFrameHeaderBytes,
                                             header.payload_len);
    conn->input.erase(0, total);
    dispatch(conn, header.type, std::move(payload));
  }
}

void Server::dispatch(const std::shared_ptr<Connection>& conn, MsgType type,
                      std::string payload) {
  const uint8_t code = static_cast<uint8_t>(type);
  auto it = metrics_->requests.find(code);
  if (it == metrics_->requests.end()) {
    // Well-framed but not a request we know (including response-typed
    // frames sent at us). The stream is still in sync: answer and go on.
    metrics_->reject("bad_request");
    send_error(conn, ErrCode::kBadRequest, "unknown request type");
    return;
  }
  it->second->inc();

  if (draining_.load(std::memory_order_acquire)) {
    metrics_->reject("draining");
    send_error(conn, ErrCode::kDraining, "server is draining");
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closing = true;
    return;
  }

  // The tenant envelope executes inline on the I/O thread: both commands
  // are lookups in the fixed tenant map (no corpus work), and handling
  // them here makes conn->tenant I/O-thread-private — no admission slot,
  // no queueing.
  if (type == MsgType::kTenantOpen) {
    TenantOpenRequest req;
    if (!decode_tenant_open(payload, &req)) {
      metrics_->reject("bad_request");
      send_error(conn, ErrCode::kBadRequest, "malformed tenant_open payload");
      return;
    }
    auto bound = tenant_queues_.find(req.name);
    if (bound == tenant_queues_.end()) {
      metrics_->reject("unknown_tenant");
      send_error(conn, ErrCode::kUnknownTenant, "no such tenant: " + req.name);
      return;
    }
    conn->tenant = &bound->second;
    const ShardedServing& backend = *bound->second.backend;
    std::string resp;
    encode_tenant_opened({backend.epoch(), backend.num_docs()}, &resp);
    send_frame(conn, MsgType::kTenantOpened, resp);
    return;
  }
  if (type == MsgType::kTenantList) {
    if (!payload.empty()) {
      metrics_->reject("bad_request");
      send_error(conn, ErrCode::kBadRequest, "tenant_list carries no payload");
      return;
    }
    TenantListingResponse listing;
    for (const auto& [name, tq] : tenant_queues_) {
      listing.tenants.push_back({name, tq.backend->num_docs()});
    }
    std::string resp;
    encode_tenant_listing(listing, &resp);
    send_frame(conn, MsgType::kTenantListing, resp);
    return;
  }

  Work work;
  work.conn = conn;
  work.type = type;
  work.tenant = conn->tenant;
  work.cost = kFrameHeaderBytes + payload.size();
  work.payload = std::move(payload);
  work.enqueued = obs::Clock::now();

  // Admission control: the global bound covers queued + executing
  // requests across all tenants ...
  size_t current = in_flight_.load(std::memory_order_relaxed);
  while (true) {
    if (current >= options_.max_in_flight) {
      metrics_->reject("overloaded");
      send_error(conn, ErrCode::kOverloaded, "too many requests in flight");
      return;
    }
    if (in_flight_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
      break;
    }
  }

  conn->in_flight.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    TenantQueue& tq = *work.tenant;
    // ... and the per-tenant bound keeps one flooding tenant from
    // consuming every slot (0 = no tighter bound).
    const size_t tenant_cap = options_.tenant_max_in_flight > 0
                                  ? options_.tenant_max_in_flight
                                  : options_.max_in_flight;
    if (tq.in_flight >= tenant_cap) {
      conn->in_flight.store(false, std::memory_order_release);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      metrics_->reject("overloaded");
      send_error(conn, ErrCode::kOverloaded,
                 "too many requests in flight for tenant " + tq.name);
      return;
    }
    ++tq.in_flight;
    tq.queue.push_back(std::move(work));
    if (!tq.active) {
      tq.active = true;
      active_.push_back(&tq);
    }
    ++queued_total_;
  }
  queue_cv_.notify_one();
}

Server::Work Server::pop_next_locked() {
  // Deficit round robin over the active-tenant ring: each turn at the
  // front of the ring tops a tenant's byte deficit up by one quantum;
  // its head request is served only once the deficit covers the
  // request's frame size. Small frames (queries) are served every turn;
  // a tenant streaming jumbo batches accumulates deficit over several
  // rotations while light tenants keep being served — that is the
  // no-starvation argument (docs/ARCHITECTURE.md §11). Terminates: every
  // full rotation grows the front-most deficits by a quantum and costs
  // are bounded by kMaxPayloadBytes.
  while (true) {
    TenantQueue& tq = *active_.front();
    if (tq.queue.empty()) {  // emptied by earlier pops; drop from the ring
      tq.active = false;
      tq.deficit = 0;
      active_.pop_front();
      continue;
    }
    const size_t cost = tq.queue.front().cost;
    if (tq.deficit < cost) {
      tq.deficit += options_.fair_quantum_bytes;
      if (tq.deficit < cost) {
        // Still short: rotate so other tenants are served while this
        // one's budget builds up.
        active_.push_back(active_.front());
        active_.pop_front();
        continue;
      }
    }
    tq.deficit -= cost;
    Work work = std::move(tq.queue.front());
    tq.queue.pop_front();
    --queued_total_;
    if (tq.queue.empty()) {
      tq.active = false;
      tq.deficit = 0;  // budget does not accumulate while idle
      active_.pop_front();
    } else {
      // One serve per turn: rotate to the back even though the leftover
      // deficit could cover the next request. Without this a tenant whose
      // closed-loop clients refill the queue as fast as it drains never
      // leaves the front and starves everyone else; with it, the worst
      // wait for any active tenant is one small frame per other tenant.
      active_.push_back(active_.front());
      active_.pop_front();
    }
    return work;
  }
}

void Server::worker_loop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return queued_total_ > 0 ||
               workers_stop_.load(std::memory_order_acquire);
      });
      if (queued_total_ == 0) return;  // stop requested and drained
      work = pop_next_locked();
    }

    MsgType resp_type;
    std::string resp_payload;
    const double waited =
        obs::seconds_between(work.enqueued, obs::Clock::now());
    // Histogram writes are atomic; no queue_mu_ needed, and the pointer
    // is stable (the tenant map's key set is fixed at construction).
    work.tenant->queue_seconds->observe(waited);
    if (options_.request_timeout_sec > 0 &&
        waited > options_.request_timeout_sec) {
      metrics_->reject("timeout");
      resp_type = MsgType::kError;
      encode_error({ErrCode::kTimeout, "request expired in queue"},
                   &resp_payload);
    } else {
      execute(work, &resp_type, &resp_payload);
      if (tenants_ != nullptr) tenants_->count_query(work.tenant->name);
    }
    metrics_->request_seconds.observe(
        obs::seconds_between(work.enqueued, obs::Clock::now()));
    // Release the admission slots before the answer goes out: a client
    // that sends its next request on reading this answer must not find
    // its previous one still counted.
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --work.tenant->in_flight;
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);

    Connection& conn = *work.conn;
    bool wake;
    {
      std::lock_guard<std::mutex> lock(conn.out_mu);
      // Under out_mu an open connection's fd is still this client's:
      // close_connection closes it under the same lock.
      const bool open = !conn.closed.load(std::memory_order_relaxed);
      if (open) encode_frame(resp_type, resp_payload, &conn.out);
      // Cleared after the append, under out_mu: a pipelined successor
      // dispatched from here on appends its answer behind this one.
      conn.in_flight.store(false);
      if (open) conn.flush_locked();
      wake = open && (conn.closing || conn.out_offset < conn.out.size());
    }
    // The I/O thread still polls this connection for input, so it needs a
    // wake only for unsent bytes, a close, parked input (the flag is read
    // after in_flight was cleared; see parse_frames) or a drain.
    if (wake || conn.parked.load() ||
        draining_.load(std::memory_order_acquire)) {
      wake_io();
    }
  }
}

void Server::execute(const Work& work, MsgType* type, std::string* payload) {
  if (options_.debug_handler_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.debug_handler_delay_ms));
  }
  payload->clear();
  ShardedServing& backend = *work.tenant->backend;
  auto bad_request = [&](const char* message) {
    metrics_->reject("bad_request");
    *type = MsgType::kError;
    encode_error({ErrCode::kBadRequest, message}, payload);
  };
  // The ingest log append failed: the posts were not published.
  auto ingest_failed = [&] {
    *type = MsgType::kError;
    encode_error({ErrCode::kInternal, "ingest could not be logged"}, payload);
  };

  switch (work.type) {
    case MsgType::kPing: {
      if (!work.payload.empty()) return bad_request("ping carries no payload");
      *type = MsgType::kPong;
      encode_pong({backend.epoch(), backend.num_docs()}, payload);
      return;
    }
    case MsgType::kQuery: {
      QueryRequest req;
      if (!decode_query(work.payload, &req)) {
        return bad_request("malformed query payload");
      }
      if (req.doc_id >= backend.next_id()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnknownDoc, "document id not in corpus"},
                     payload);
        return;
      }
      ShardedServing::QueryResult result =
          backend.find_related(req.doc_id, static_cast<int>(req.k));
      *type = MsgType::kRelated;
      encode_related({result.epoch, result.num_docs, std::move(result.results)},
                     payload);
      return;
    }
    case MsgType::kAsk: {
      AskRequest req;
      if (!decode_ask(work.payload, &req)) {
        return bad_request("malformed ask payload");
      }
      Document doc = Document::analyze(kExternalQueryId, req.text);
      if (doc.num_units() == 0) return bad_request("empty post");
      ShardedServing::QueryResult result =
          backend.find_related_external(doc, static_cast<int>(req.k));
      *type = MsgType::kRelated;
      encode_related({result.epoch, result.num_docs, std::move(result.results)},
                     payload);
      return;
    }
    case MsgType::kAddPost: {
      if (options_.read_only) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported,
                      "replica is read-only; ingest on the leader"},
                     payload);
        return;
      }
      AddPostRequest req;
      if (!decode_add_post(work.payload, &req) || req.text.empty()) {
        return bad_request("malformed or empty add_post payload");
      }
      std::optional<DocId> id = backend.add_post(std::move(req.text));
      if (!id.has_value()) return ingest_failed();
      *type = MsgType::kAdded;
      encode_added({{*id}}, payload);
      return;
    }
    case MsgType::kAddPosts: {
      if (options_.read_only) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported,
                      "replica is read-only; ingest on the leader"},
                     payload);
        return;
      }
      AddPostsRequest req;
      if (!decode_add_posts(work.payload, &req)) {
        return bad_request("malformed add_posts payload");
      }
      for (const std::string& text : req.texts) {
        if (text.empty()) return bad_request("empty post in batch");
      }
      std::optional<std::vector<DocId>> ids =
          backend.add_posts(std::move(req.texts));
      if (!ids.has_value()) return ingest_failed();
      *type = MsgType::kAdded;
      encode_added({std::move(*ids)}, payload);
      return;
    }
    case MsgType::kSave: {
      const std::string dir = state_dir(*work.tenant);
      if (!work.payload.empty()) return bad_request("save carries no payload");
      if (dir.empty()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported, "server has no state directory"},
                     payload);
        return;
      }
      if (!backend.save(dir)) {
        *type = MsgType::kError;
        encode_error({ErrCode::kInternal, "save failed"}, payload);
        return;
      }
      *type = MsgType::kSaved;
      return;
    }
    case MsgType::kMetrics: {
      MetricsRequest req;
      if (!decode_metrics(work.payload, &req)) {
        return bad_request("malformed metrics payload");
      }
      MetricsDataResponse resp;
      resp.body = req.format == 1 ? obs::render_json() : obs::render_text();
      *type = MsgType::kMetricsData;
      encode_metrics_data(resp, payload);
      return;
    }
    case MsgType::kRecluster: {
      if (!work.payload.empty()) {
        return bad_request("recluster carries no payload");
      }
      if (options_.read_only) {
        // Replicas mirror the leader's recluster boundaries from shipped
        // segments; a locally-forced epoch would fork their label history.
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported,
                      "replica is read-only; recluster on the leader"},
                     payload);
        return;
      }
      // Synchronous: the response is sent only after the new generation
      // has swapped in, so a RECLUSTER -> QUERY sequence on one
      // connection observes the new clustering. The worker executing this
      // holds no serving lock; queries on other workers keep flowing
      // through the shadow build exactly as with the background worker.
      uint64_t generation = backend.recluster();
      *type = MsgType::kReclustered;
      encode_reclustered(
          {generation, static_cast<uint32_t>(backend.num_clusters())},
          payload);
      return;
    }
    case MsgType::kSubscribeWal: {
      SubscribeWalRequest req;
      if (!decode_subscribe_wal(work.payload, &req)) {
        return bad_request("malformed subscribe_wal payload");
      }
      ShardedServing::ShipSegment seg = backend.ship_segment(
          req.from_seq, req.replica_generation, req.max_frames,
          req.max_bytes);
      using Status = ShardedServing::ShipSegment::Status;
      if (seg.status == Status::kAhead) {
        return bad_request("from_seq is ahead of the leader's epoch");
      }
      if (seg.status == Status::kSnapshotNeeded) {
        *type = MsgType::kError;
        encode_error({ErrCode::kSnapshotNeeded,
                      "cursor not servable from frames; re-bootstrap from "
                      "a snapshot"},
                     payload);
        return;
      }
      WalSegmentResponse resp;
      resp.base_seq = seg.base_seq;
      resp.leader_seq = seg.leader_seq;
      resp.leader_generation = seg.leader_generation;
      resp.segment_generation = seg.segment_generation;
      resp.recluster_after = seg.recluster_after ? 1 : 0;
      resp.recluster_target = seg.recluster_target;
      resp.frame_count = seg.frame_count;
      resp.raw = std::move(seg.raw);
      encode_wal_segment(resp, payload);
      if (payload->size() > kMaxPayloadBytes) {
        // Only reachable when a single locally-ingested post exceeds the
        // frame limit (wire ingests cannot: ADD_POST payloads are already
        // bounded by it). Such a follower must bootstrap from a snapshot.
        payload->clear();
        *type = MsgType::kError;
        encode_error({ErrCode::kSnapshotNeeded,
                      "segment frame exceeds the wire payload limit"},
                     payload);
        return;
      }
      *type = MsgType::kWalSegment;
      return;
    }
    case MsgType::kWalAck: {
      WalAckRequest req;
      if (!decode_wal_ack(work.payload, &req)) {
        return bad_request("malformed wal_ack payload");
      }
      const uint64_t epoch = backend.epoch();
      const uint64_t lag = epoch > req.acked_seq ? epoch - req.acked_seq : 0;
      // Single-tenant servers keep the historical series shape; registry
      // mode adds the tenant label so per-tenant followers stay distinct.
      obs::Labels lag_labels{{"replica", req.replica_id}};
      if (tenants_ != nullptr) lag_labels.push_back({"tenant", work.tenant->name});
      obs::MetricsRegistry::global()
          .gauge("ibseg_leader_replica_lag_frames",
                 "Publications the leader is ahead of each replica's last "
                 "acknowledged position, by replica id.",
                 std::move(lag_labels))
          .set(static_cast<double>(lag));
      *type = MsgType::kWalAcked;
      return;
    }
    case MsgType::kSnapshotList: {
      const std::string dir = state_dir(*work.tenant);
      if (!work.payload.empty()) {
        return bad_request("snapshot_list carries no payload");
      }
      if (dir.empty()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported, "server has no state directory"},
                     payload);
        return;
      }
      // Save first: the listing must describe a committed, self-contained
      // state (ingest log truncated, manifest covering every publication),
      // so a bootstrap that fetches exactly the listed files restores to a
      // clean frame boundary.
      if (!backend.save(dir)) {
        *type = MsgType::kError;
        encode_error({ErrCode::kInternal, "snapshot save failed"}, payload);
        return;
      }
      std::optional<ShardManifest> manifest =
          load_shard_manifest_file(dir + "/MANIFEST");
      if (!manifest.has_value()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kInternal, "manifest unreadable after save"},
                     payload);
        return;
      }
      SnapshotListingResponse resp;
      resp.generation = manifest->generation;
      resp.num_shards = manifest->num_shards;
      for (const std::string& name : snapshot_file_names(*manifest)) {
        std::ifstream in(dir + "/" + name, std::ios::binary);
        uint32_t crc = 0;
        uint64_t size = 0;
        char buf[65536];
        bool ok = static_cast<bool>(in);
        while (ok) {
          in.read(buf, sizeof(buf));
          const std::streamsize got = in.gcount();
          if (got > 0) {
            crc = crc32(buf, static_cast<size_t>(got), crc);
            size += static_cast<uint64_t>(got);
          }
          if (in.bad()) ok = false;
          if (got < static_cast<std::streamsize>(sizeof(buf))) break;
        }
        if (!ok) {
          *type = MsgType::kError;
          encode_error({ErrCode::kInternal,
                        "snapshot file unreadable: " + name},
                       payload);
          return;
        }
        resp.files.push_back({name, size, crc});
      }
      *type = MsgType::kSnapshotListing;
      encode_snapshot_listing(resp, payload);
      return;
    }
    case MsgType::kSnapshotChunk: {
      const std::string dir = state_dir(*work.tenant);
      SnapshotChunkRequest req;
      if (!decode_snapshot_chunk(work.payload, &req)) {
        return bad_request("malformed snapshot_chunk payload");
      }
      if (dir.empty()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kUnsupported, "server has no state directory"},
                     payload);
        return;
      }
      // Only names the CURRENT manifest lists are servable — re-derived
      // here rather than trusting the request, so a chunk request can
      // never traverse outside the state directory.
      std::optional<ShardManifest> manifest =
          load_shard_manifest_file(dir + "/MANIFEST");
      if (!manifest.has_value()) {
        *type = MsgType::kError;
        encode_error({ErrCode::kSnapshotNeeded,
                      "no committed snapshot; SNAPSHOT_LIST first"},
                     payload);
        return;
      }
      const std::vector<std::string> names = snapshot_file_names(*manifest);
      if (std::find(names.begin(), names.end(), req.name) == names.end()) {
        return bad_request("name not in the current snapshot listing");
      }
      std::ifstream in(dir + "/" + req.name,
                       std::ios::binary | std::ios::ate);
      if (!in) {
        // Listed a moment ago but gone now: a newer save swapped
        // generations. The fetcher restarts from a fresh listing.
        *type = MsgType::kError;
        encode_error({ErrCode::kSnapshotNeeded,
                      "snapshot file superseded; re-list"},
                     payload);
        return;
      }
      SnapshotDataResponse resp;
      resp.total_size = static_cast<uint64_t>(in.tellg());
      // Clamp so the response payload (fixed fields + data) always fits
      // the frame limit, whatever max_len the client asked for.
      const uint32_t cap = kMaxPayloadBytes - 64;
      const uint32_t max_len = std::min(req.max_len, cap);
      if (req.offset < resp.total_size) {
        const uint64_t avail = resp.total_size - req.offset;
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(avail, max_len));
        resp.data.resize(want);
        in.seekg(static_cast<std::streamoff>(req.offset));
        if (!in.read(resp.data.data(),
                     static_cast<std::streamsize>(want))) {
          *type = MsgType::kError;
          encode_error({ErrCode::kInternal, "snapshot file short read"},
                       payload);
          return;
        }
      }
      *type = MsgType::kSnapshotData;
      encode_snapshot_data(resp, payload);
      return;
    }
    case MsgType::kDrain: {
      if (!work.payload.empty()) {
        return bad_request("drain carries no payload");
      }
      // Acknowledge first (the response rides the output buffer the drain
      // flush waits on), then initiate.
      *type = MsgType::kDraining;
      request_drain();
      {
        std::lock_guard<std::mutex> lock(lifecycle_mu_);
      }
      lifecycle_cv_.notify_all();  // unblock wait_drained()
      return;
    }
    default:
      return bad_request("unknown request type");
  }
}

void Server::send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                        std::string_view payload) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  encode_frame(type, payload, &conn->out);
}

void Server::send_error(const std::shared_ptr<Connection>& conn, ErrCode code,
                        const std::string& message) {
  std::string payload;
  encode_error({code, message}, &payload);
  send_frame(conn, MsgType::kError, payload);
}

void Server::close_connection(const std::shared_ptr<Connection>& conn) {
  {
    // Closed under out_mu: a worker holding it and seeing `closed` false
    // may still write to this fd, and the fd number must not be reused
    // by a new connection until that write is done.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
  }
  size_t open = 0;
  for (auto& [fd, c] : connections_) {
    if (!c->closed.load(std::memory_order_acquire)) ++open;
  }
  metrics_->connections.set(static_cast<double>(open));
}

}  // namespace net
}  // namespace ibseg
