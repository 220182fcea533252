// Closed-loop load generator for the network front-end: N client threads,
// each with its own TCP connection to an in-process ibseg net::Server,
// each looping send-QUERY / wait-for-RELATED for the measurement window.
// Closed loop means offered load adapts to service rate — every thread has
// exactly one request outstanding — so the table reads as "at this
// concurrency, this throughput at these latencies", with client-observed
// p50/p95/p99 per configuration.
//
// **This binary deliberately does NOT link net/client.h or the encoders in
// net/frame.h.** Every frame it sends and parses is hand-rolled from the
// byte tables in docs/PROTOCOL.md (§2 frame header, §4.2 QUERY, §5.2
// RELATED, §5.7 ERROR) — an independent second implementation of the wire
// format, so the bench doubles as a conformance check that the document
// is sufficient to interoperate from. If the server and this file
// disagree, one of them diverged from the document; fix against the
// document (it is normative).
//
// Results print as a table and land in BENCH_server_qps.json (current
// working directory); scripts/reproduce.sh checks the JSON schema.
// IBSEG_BENCH_SCALE scales the corpus; IBSEG_QPS_WINDOW_MS overrides the
// per-configuration window.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/sharded_serving.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

// ------------------------------------------------------------------------
// Hand-rolled wire format, transcribed from docs/PROTOCOL.md. Integers are
// little-endian; the frame header is 12 bytes (§2).

constexpr uint8_t kTypeQuery = 0x02;    // §3: QUERY request
constexpr uint8_t kTypeRelated = 0x82;  // §3: RELATED response

void put_u32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// §2: "IBSN" | version 1 | type | two zero reserved bytes | payload
/// length (u32 LE) | payload.
std::string make_frame(uint8_t type, const std::string& payload) {
  std::string frame = "IBSN";
  frame.push_back(1);
  frame.push_back(static_cast<char>(type));
  frame.push_back(0);
  frame.push_back(0);
  put_u32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

/// §4.2: QUERY payload = doc_id (u32 LE) | k (u32 LE).
std::string make_query_frame(uint32_t doc_id, uint32_t k) {
  std::string payload;
  put_u32(&payload, doc_id);
  put_u32(&payload, k);
  return make_frame(kTypeQuery, payload);
}

bool send_all(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, uint8_t* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one response frame and validates it against §2/§5.2: a RELATED
/// answer whose payload is epoch u64 | num_docs u64 | count u32 | count ×
/// (doc u32 | score f64) — 20 + 12*count bytes exactly.
bool read_related_response(int fd, uint32_t expect_max_results) {
  uint8_t header[12];
  if (!recv_exact(fd, header, sizeof(header))) return false;
  if (std::memcmp(header, "IBSN", 4) != 0 || header[4] != 1 ||
      header[6] != 0 || header[7] != 0) {
    return false;
  }
  const uint8_t type = header[5];
  const uint32_t payload_len = get_u32(header + 8);
  if (payload_len > 16u * 1024u * 1024u) return false;
  std::vector<uint8_t> payload(payload_len);
  if (payload_len > 0 && !recv_exact(fd, payload.data(), payload_len)) {
    return false;
  }
  if (type != kTypeRelated) return false;  // ERROR (§5.7) counts as failure
  if (payload_len < 20) return false;
  const uint32_t count = get_u32(payload.data() + 16);
  if (count > expect_max_results) return false;
  return payload_len == 20 + 12ull * count;
}

int connect_loopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// ------------------------------------------------------------------------

bench::ClientWindow run_config(uint16_t port, size_t num_docs, int clients,
                               double window_sec) {
  constexpr uint32_t kTopK = 5;

  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> errors(clients, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      int fd = connect_loopback(port);
      if (fd < 0) {
        ++errors[static_cast<size_t>(t)];
        return;
      }
      Rng rng(1000 + static_cast<uint64_t>(t));
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Stopwatch window;
      while (window.elapsed_seconds() < window_sec) {
        const uint32_t doc = static_cast<uint32_t>(rng.next_below(num_docs));
        Stopwatch one;
        bool ok = send_all(fd, make_query_frame(doc, kTopK)) &&
                  read_related_response(fd, kTopK);
        if (ok) {
          latencies[static_cast<size_t>(t)].push_back(
              one.elapsed_seconds() * 1000.0);
        } else {
          ++errors[static_cast<size_t>(t)];
        }
      }
      ::close(fd);
    });
  }

  Stopwatch watch;
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  return bench::summarize_clients(latencies, errors, watch.elapsed_seconds());
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size = static_cast<size_t>(240 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  ServingOptions serving;
  serving.num_shards = 2;
  std::unique_ptr<ShardedServing> backend =
      ShardedServing::create(analyze_corpus(corpus), {}, serving);
  if (backend == nullptr) {
    std::fprintf(stderr, "server_qps: backend build failed\n");
    return 1;
  }

  net::ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_workers = 2;
  net::Server server(backend.get(), options);
  if (!server.start()) {
    std::fprintf(stderr, "server_qps: server start failed\n");
    return 1;
  }

  const int window = window_ms(1200);
  const std::vector<int> client_counts = {1, 2, 4, 8};
  std::vector<ClientWindow> rows;
  for (int clients : client_counts) {
    rows.push_back(run_config(server.port(), backend->num_docs(), clients,
                              window / 1000.0));
  }
  server.drain();

  TablePrinter table({"clients", "queries/sec", "p50 ms", "p95 ms", "p99 ms",
                      "errors"});
  for (size_t i = 0; i < rows.size(); ++i) {
    table.add_row({std::to_string(client_counts[i]),
                   str_format("%.1f", rows[i].qps),
                   str_format("%.3f", rows[i].p50_ms),
                   str_format("%.3f", rows[i].p95_ms),
                   str_format("%.3f", rows[i].p99_ms),
                   std::to_string(rows[i].errors)});
  }
  std::printf(
      "server_qps: closed-loop QUERY load over loopback TCP "
      "(hand-rolled docs/PROTOCOL.md frames)\n");
  table.print(std::cout);

  BenchJson json("server_qps");
  json.put("corpus_posts", corpus_size);
  json.put("window_ms", window);
  json.array("configs", [&] {
    for (size_t i = 0; i < rows.size(); ++i) {
      json.element([&] {
        json.put("clients", client_counts[i]);
        json.put(rows[i]);
      });
    }
  });
  json.write();

  uint64_t total_errors = 0;
  for (const ClientWindow& row : rows) total_errors += row.errors;
  return total_errors == 0 ? 0 : 1;
}
