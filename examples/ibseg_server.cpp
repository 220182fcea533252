// ibseg_server — the network serving front-end (docs/OPERATIONS.md is the
// runbook, docs/PROTOCOL.md the wire contract).
//
//   ibseg_server --corpus=FILE [options]     cold start from a corpus file
//   ibseg_server --restore=DIR [options]     warm start from sharded state
//
// Options:
//   --port=N             TCP port (default 7433; 0 = ephemeral)
//   --bind=ADDR          bind address (default 127.0.0.1)
//   --port-file=PATH     write the bound port to PATH once listening
//                        (scripts wait on this instead of parsing stdout)
//   --shards=N           hash-partitioned shards (default 1; ignored with
//                        --restore, which reads the shard count from the
//                        manifest)
//   --state=DIR          durable state directory: enables the SAVE
//                        command, attaches the ingest log so every
//                        acknowledged ADD_POST is durable, and saves on
//                        drain. With --restore they are usually the same
//                        directory.
//   --workers=N          request worker threads (default 2)
//   --max-in-flight=N    admission bound, queued + executing (default 64)
//   --max-connections=N  connection limit (default 256)
//   --request-timeout=S  queue-wait deadline in seconds (default 5)
//   --idle-timeout=S     idle connection close, seconds (default 300)
//   --cache=N            result cache capacity (default 0 = off)
//   --recluster-pending-threshold=D
//                        assignment-distance above which an ingested post
//                        joins the pending/outlier pool (default: off)
//   --recluster-max-pending=N
//                        background recluster when the pending pool
//                        reaches N (default 0 = trigger off)
//   --recluster-max-docs=N
//                        background recluster every N ingests regardless
//                        of pool size (default 0 = trigger off)
//   --recluster-poll-ms=N
//                        trigger poll interval (default 200)
//
// Multi-tenancy (docs/ARCHITECTURE.md §11, docs/OPERATIONS.md §8):
//   --tenants=A[,B,...]  host the named tenants (plus the implicit
//                        "default") as fully isolated corpora behind this
//                        one process. Requires --corpus (each tenant with
//                        no durable state seeds from it); with --state,
//                        each tenant persists under
//                        <state>/tenant-<name>/ and restores from there
//                        on restart. Incompatible with --restore and
//                        --replicate-from. Clients bind a connection with
//                        TENANT_OPEN (ibseg_cli --tenant=NAME).
//   --tenant-max-in-flight=N
//                        per-tenant admission bound (default 0 = the
//                        global --max-in-flight)
//   --fair-quantum=N     deficit-round-robin quantum in bytes for the
//                        cross-tenant fair scheduler (default 8192)
//
// Replication (docs/ARCHITECTURE.md §10, docs/OPERATIONS.md §7):
//   --replicate-from=HOST:PORT
//                        run as a read replica of the leader at HOST:PORT.
//                        Requires --state=DIR (the replica's own durable
//                        directory). Bootstraps from that directory if it
//                        holds committed state, otherwise fetches the
//                        leader's snapshot over the wire; then tails the
//                        leader's publications, applying segments until
//                        drained.
//                        The server runs read-only: ADD_POST/ADD_POSTS/
//                        RECLUSTER answer ERROR/UNSUPPORTED.
//   --replica-id=NAME    stable name for the lag gauges (default the
//                        state directory's basename)
//   --replica-poll-ms=N  WAL poll interval once caught up (default 50)
//
// Every server, leader or replica, runs the QUERY/ASK requests it admits
// on its own backend; a read client that wants a replica's answers
// connects to the replica.
//
// Shutdown: SIGTERM or SIGINT (or a DRAIN frame from any client) starts a
// graceful drain — stop accepting, answer new requests with
// ERROR/DRAINING, finish in-flight work, flush responses, then (with
// --state) persist everything under the publication barrier. The process
// exits 0 after a clean drain.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "core/tenant_registry.h"
#include "net/server.h"
#include "replication/replica.h"
#include "storage/corpus_io.h"

using namespace ibseg;

namespace {

// Self-pipe for async-signal-safe shutdown: the handler only write(2)s.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int usage() {
  std::fprintf(stderr,
               "usage: ibseg_server (--corpus=FILE | --restore=DIR)\n"
               "                    [--port=N] [--bind=ADDR] "
               "[--port-file=PATH]\n"
               "                    [--shards=N] [--state=DIR] [--workers=N]\n"
               "                    [--max-in-flight=N] "
               "[--max-connections=N]\n"
               "                    [--request-timeout=S] [--idle-timeout=S]\n"
               "                    [--cache=N]\n"
               "                    [--recluster-pending-threshold=D]\n"
               "                    [--recluster-max-pending=N] "
               "[--recluster-max-docs=N]\n"
               "                    [--recluster-poll-ms=N]\n"
               "                    [--tenants=A[,B,...]] "
               "[--tenant-max-in-flight=N]\n"
               "                    [--fair-quantum=N]\n"
               "                    [--replicate-from=H:P] [--replica-id=NAME]\n"
               "                    [--replica-poll-ms=N]\n"
               "see docs/OPERATIONS.md\n");
  return 2;
}

/// Splits "host:port" (port 1..65535); false on any malformation.
bool parse_host_port(const std::string& addr, std::string* host,
                     uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  char* end = nullptr;
  const unsigned long p = std::strtoul(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p == 0 || p > 65535) return false;
  *host = addr.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

std::vector<Document> load_docs(const std::string& path) {
  if (auto corpus = load_corpus_file(path)) return analyze_corpus(*corpus);
  std::ifstream is(path);
  std::vector<Document> docs;
  if (!is) return docs;
  size_t id = 0;
  for (const std::string& text : load_plain_posts(is)) {
    docs.push_back(Document::analyze(static_cast<DocId>(id++), text));
  }
  return docs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_path, restore_dir, port_file;
  std::string replicate_from, replica_id;
  std::vector<std::string> tenant_names;
  bool tenants_mode = false;
  int replica_poll_ms = 50;
  net::ServerOptions server_options;
  server_options.port = 7433;
  ServingOptions serving_options;
  PipelineOptions build_options;
  int num_shards = 1;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(a, prefix, n) == 0 ? a + n : nullptr;
    };
    if (const char* v = value("--corpus=")) {
      corpus_path = v;
    } else if (const char* v = value("--restore=")) {
      restore_dir = v;
    } else if (const char* v = value("--port=")) {
      server_options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (const char* v = value("--bind=")) {
      server_options.bind_address = v;
    } else if (const char* v = value("--port-file=")) {
      port_file = v;
    } else if (const char* v = value("--shards=")) {
      num_shards = std::atoi(v);
      if (num_shards < 1) return usage();
    } else if (const char* v = value("--state=")) {
      server_options.state_dir = v;
    } else if (const char* v = value("--workers=")) {
      server_options.num_workers = std::atoi(v);
      if (server_options.num_workers < 1) return usage();
    } else if (const char* v = value("--max-in-flight=")) {
      server_options.max_in_flight = std::strtoull(v, nullptr, 10);
      if (server_options.max_in_flight < 1) return usage();
    } else if (const char* v = value("--max-connections=")) {
      server_options.max_connections = std::strtoull(v, nullptr, 10);
      if (server_options.max_connections < 1) return usage();
    } else if (const char* v = value("--request-timeout=")) {
      server_options.request_timeout_sec = std::atof(v);
    } else if (const char* v = value("--idle-timeout=")) {
      server_options.idle_timeout_sec = std::atof(v);
    } else if (const char* v = value("--cache=")) {
      serving_options.cache.capacity = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--recluster-pending-threshold=")) {
      serving_options.recluster.pending_distance_threshold = std::atof(v);
    } else if (const char* v = value("--recluster-max-pending=")) {
      server_options.recluster.max_pending = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--recluster-max-docs=")) {
      server_options.recluster.max_docs_since = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--recluster-poll-ms=")) {
      server_options.recluster.poll_interval_ms = std::atoi(v);
    } else if (const char* v = value("--tenants=")) {
      tenants_mode = true;
      std::string list = v;
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!name.empty()) tenant_names.push_back(name);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (const char* v = value("--tenant-max-in-flight=")) {
      server_options.tenant_max_in_flight = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--fair-quantum=")) {
      server_options.fair_quantum_bytes = std::strtoull(v, nullptr, 10);
      if (server_options.fair_quantum_bytes < 1) return usage();
    } else if (const char* v = value("--replicate-from=")) {
      replicate_from = v;
    } else if (const char* v = value("--replica-id=")) {
      replica_id = v;
    } else if (const char* v = value("--replica-poll-ms=")) {
      replica_poll_ms = std::atoi(v);
      if (replica_poll_ms < 1) return usage();
    } else {
      return usage();
    }
  }
  // Replica mode sources its state from the leader (or its own directory);
  // --corpus/--restore are the leader-mode sources, exactly one of which
  // is required there.
  if (replicate_from.empty()) {
    if (corpus_path.empty() == restore_dir.empty()) return usage();
  } else {
    if (!corpus_path.empty() || !restore_dir.empty() ||
        server_options.state_dir.empty()) {
      return usage();
    }
  }
  // Tenant mode seeds from the corpus file (restore is implicit: any
  // tenant with a MANIFEST under <state>/tenant-<name>/ restores instead)
  // and is a leader-only concept.
  if (tenants_mode && (corpus_path.empty() || !replicate_from.empty())) {
    return usage();
  }

  serving_options.num_shards = num_shards;
  // --state wires sharded persistence: the ingest log absorbs every
  // acknowledged ingest before it publishes, making ADD_POST acks durable
  // even before the drain-time snapshot.
  serving_options.persist.shard_dir = server_options.state_dir;

  std::unique_ptr<ShardedServing> backend;
  std::unique_ptr<repl::Replica> replica;
  std::unique_ptr<TenantRegistry> tenants;
  if (tenants_mode) {
    TenantRegistryOptions registry_options;
    registry_options.state_root = server_options.state_dir;
    registry_options.pipeline = build_options;
    registry_options.serving = serving_options;
    tenants = TenantRegistry::open(
        registry_options, tenant_names,
        [&corpus_path](const std::string&) { return load_docs(corpus_path); });
    if (tenants == nullptr) {
      std::fprintf(stderr,
                   "ibseg_server: cannot open tenants (invalid name, bad "
                   "state under %s, or unloadable corpus %s)\n",
                   server_options.state_dir.empty()
                       ? "<no state dir>"
                       : server_options.state_dir.c_str(),
                   corpus_path.c_str());
      return 1;
    }
  } else if (!replicate_from.empty()) {
    repl::ReplicaOptions replica_options;
    if (!parse_host_port(replicate_from, &replica_options.leader_host,
                         &replica_options.leader_port)) {
      return usage();
    }
    replica_options.dir = server_options.state_dir;
    if (replica_id.empty()) {
      const size_t slash = replica_options.dir.find_last_of('/');
      replica_id = slash == std::string::npos
                       ? replica_options.dir
                       : replica_options.dir.substr(slash + 1);
    }
    replica_options.replica_id = replica_id;
    replica_options.poll_interval_ms = replica_poll_ms;
    replica_options.pipeline = build_options;
    replica_options.serving = serving_options;
    replica = repl::Replica::bootstrap(std::move(replica_options));
    if (replica == nullptr) {
      std::fprintf(stderr,
                   "ibseg_server: cannot bootstrap replica of %s into %s\n",
                   replicate_from.c_str(), server_options.state_dir.c_str());
      return 1;
    }
    server_options.read_only = true;
  } else if (!restore_dir.empty()) {
    backend = ShardedServing::restore(restore_dir, build_options,
                                      serving_options);
    if (backend == nullptr) {
      std::fprintf(stderr, "ibseg_server: cannot restore from %s\n",
                   restore_dir.c_str());
      return 1;
    }
  } else {
    std::vector<Document> docs = load_docs(corpus_path);
    if (docs.empty()) {
      std::fprintf(stderr, "ibseg_server: cannot load corpus %s\n",
                   corpus_path.c_str());
      return 1;
    }
    backend = ShardedServing::create(std::move(docs), build_options,
                                     serving_options);
    if (backend == nullptr) {
      std::fprintf(stderr, "ibseg_server: cannot build serving state\n");
      return 1;
    }
  }

  ShardedServing* serving_backend = tenants != nullptr
                                        ? tenants->default_backend()
                                        : replica != nullptr
                                              ? &replica->backend()
                                              : backend.get();
  std::unique_ptr<net::Server> server =
      tenants != nullptr
          ? std::make_unique<net::Server>(tenants.get(), server_options)
          : std::make_unique<net::Server>(serving_backend, server_options);
  if (!server->start()) return 1;
  if (replica != nullptr) replica->start_polling();

  if (tenants != nullptr) {
    std::string joined;
    for (const std::string& name : tenants->names()) {
      if (!joined.empty()) joined += ",";
      joined += name;
    }
    std::printf(
        "ibseg_server: %zu tenants (%s), %u shards each, listening on "
        "%s:%u\n",
        tenants->size(), joined.c_str(), serving_backend->num_shards(),
        server_options.bind_address.c_str(), server->port());
  } else {
    std::printf("ibseg_server: %zu docs, %u shards, listening on %s:%u%s\n",
                serving_backend->num_docs(), serving_backend->num_shards(),
                server_options.bind_address.c_str(), server->port(),
                replica != nullptr ? " (replica, read-only)" : "");
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server->port() << "\n";
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("ibseg_server: pipe");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Wait for either a signal (self-pipe readable) or a client-initiated
  // drain (wait_drained returns). A dedicated thread bridges the signal
  // pipe to server.drain(); wait_drained() then completes on either path.
  std::thread signal_waiter([&server] {
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server->drain();
  });
  server->wait_drained();
  // Stop tailing the leader before reporting: the drain-time save already
  // persisted the replica's applied position.
  if (replica != nullptr) replica->stop();

  // Unblock the signal thread if the drain came from the wire.
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  signal_waiter.join();

  std::printf("ibseg_server: drained cleanly (%zu docs, epoch %llu)\n",
              serving_backend->num_docs(),
              static_cast<unsigned long long>(serving_backend->epoch()));
  return 0;
}
