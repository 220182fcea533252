// Loopback proof of the network front-end: a Server on an ephemeral
// 127.0.0.1 port over a real ShardedServing, exercised through net::Client
// (and, for the framing-violation cases, a hand-rolled raw socket). The
// load-bearing assertions:
//
//   * QUERY and ASK over the socket are **bit-identical** to calling the
//     same backend in-process — ranked ids AND operator== on the double
//     scores. The wire moves raw IEEE-754 bits, so nothing may drift.
//   * A drain loses no acknowledged ADD_POST: every ingest the server
//     acked before DRAIN is present after ShardedServing::restore of the
//     drained state, answering bit-identically to a reference deployment
//     that ingested the same texts in-process.
//   * Admission control and deadlines reject with the documented error
//     codes (OVERLOADED, TIMEOUT, DRAINING) instead of silently dropping.
//   * Malformed payloads get ERROR/BAD_REQUEST and the connection stays
//     usable; a malformed *frame* closes the connection (framing is lost).
//   * The stream contract around the worker's own socket write: a
//     pipelined burst is answered in order under write backpressure, a
//     half-closed client still gets its answer, and the answer of a reset
//     connection never lands on a new connection reusing its descriptor.
//
// Registered under the `net` ctest label; scripts/reproduce.sh
// IBSEG_NET_CHECK=1 runs the label normally and under ASan.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "net/client.h"
#include "net/server.h"
#include "seg/document.h"
#include "temp_dir.h"

namespace ibseg {
namespace net {
namespace {

constexpr size_t kPosts = 24;

/// Matches the server's convention for labeling transient ASK documents
/// (PROTOCOL.md §4.3): the id is far above any real corpus id and is never
/// ingested. The reference side of the ASK differential must use the same
/// id so the analyzed Document is identical.
constexpr DocId kExternalQueryId = 1u << 30;

GeneratorOptions corpus_options(size_t posts, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return gen;
}

std::vector<Document> corpus_docs(size_t posts, uint64_t seed) {
  return analyze_corpus(generate_corpus(corpus_options(posts, seed)));
}

std::vector<std::string> ingest_texts(size_t count, uint64_t seed) {
  SyntheticCorpus extra = generate_corpus(corpus_options(count, seed));
  std::vector<std::string> texts;
  texts.reserve(extra.posts.size());
  for (const GeneratedPost& p : extra.posts) texts.push_back(p.text);
  return texts;
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    // operator== on the doubles: the wire carries raw IEEE-754 bits.
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// A backend + server + connected client on an ephemeral loopback port.
struct Loopback {
  std::unique_ptr<ShardedServing> backend;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;
};

Loopback start_loopback(ServerOptions options, int shards = 2,
                        uint64_t seed = 11) {
  Loopback lb;
  ServingOptions serving;
  serving.num_shards = shards;
  lb.backend = ShardedServing::create(corpus_docs(kPosts, seed), {}, serving);
  EXPECT_NE(lb.backend, nullptr);
  options.port = 0;  // ephemeral; read back via port()
  lb.server = std::make_unique<Server>(lb.backend.get(), options);
  EXPECT_TRUE(lb.server->start());
  lb.client = Client::connect("127.0.0.1", lb.server->port());
  EXPECT_NE(lb.client, nullptr);
  return lb;
}

/// Raw loopback socket for tests that must violate the protocol in ways
/// net::Client refuses to (bad magic, wrong version). Sends exactly the
/// bytes given; reports whether the server closed the stream.
struct RawSocket {
  int fd = -1;

  explicit RawSocket(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~RawSocket() {
    if (fd >= 0) ::close(fd);
  }

  bool send_bytes(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until the peer closes (recv returns 0) or data arrives.
  /// Returns true iff the connection was closed with no further data.
  bool closed_by_peer() {
    char buf[256];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    return n == 0;
  }

  /// Reads exactly one frame; false on EOF, error or a bad header. Every
  /// recv is bounded by a 10 s timeout so a lost answer fails, not hangs.
  bool read_frame(MsgType* type, std::string* payload) {
    timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string header(kFrameHeaderBytes, '\0');
    FrameHeader h;
    if (!recv_exactly(header.data(), header.size()) ||
        decode_frame_header(reinterpret_cast<const uint8_t*>(header.data()),
                            header.size(), &h) != DecodeStatus::kOk) {
      return false;
    }
    payload->assign(h.payload_len, '\0');
    *type = h.type;
    return recv_exactly(payload->data(), payload->size());
  }

 private:
  bool recv_exactly(char* out, size_t size) {
    size_t off = 0;
    while (off < size) {
      ssize_t n = ::recv(fd, out + off, size - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
};

std::string query_frame(DocId doc, uint32_t k) {
  std::string payload, frame;
  encode_query({doc, k}, &payload);
  encode_frame(MsgType::kQuery, payload, &frame);
  return frame;
}

/// The RELATED payload the server must send for `doc`: the in-process
/// answer, encoded (the wire carries raw IEEE-754 bits).
std::string related_payload(ShardedServing& backend, DocId doc, uint32_t k) {
  ShardedServing::QueryResult want =
      backend.find_related(doc, static_cast<int>(k));
  std::string payload;
  encode_related({want.epoch, want.num_docs, std::move(want.results)},
                 &payload);
  return payload;
}

// ---------------------------------------------------------- liveness ----

TEST(NetServer, PingReportsServingCoordinates) {
  Loopback lb = start_loopback({});
  PongResponse pong;
  ASSERT_TRUE(lb.client->ping(&pong).ok());
  EXPECT_EQ(pong.epoch, lb.backend->epoch());
  EXPECT_EQ(pong.num_docs, lb.backend->num_docs());
}

// ----------------------------------------------- query bit-identity ----

TEST(NetServer, QueryOverSocketBitIdenticalToInProcess) {
  Loopback lb = start_loopback({});
  const DocId num_docs = static_cast<DocId>(lb.backend->num_docs());
  for (DocId doc = 0; doc < num_docs; ++doc) {
    for (uint32_t k : {1u, 3u, 10u}) {
      ShardedServing::QueryResult want =
          lb.backend->find_related(doc, static_cast<int>(k));
      RelatedResponse got;
      ASSERT_TRUE(lb.client->query(doc, k, &got).ok())
          << "doc " << doc << " k " << k;
      EXPECT_EQ(got.epoch, want.epoch);
      EXPECT_EQ(got.num_docs, want.num_docs);
      expect_identical(got.results, want.results,
                       "doc " + std::to_string(doc) + " k " +
                           std::to_string(k));
    }
  }
}

TEST(NetServer, AskBitIdenticalToFindRelatedExternal) {
  Loopback lb = start_loopback({});
  for (const std::string& text : ingest_texts(4, 77)) {
    Document doc = Document::analyze(kExternalQueryId, text);
    ShardedServing::QueryResult want =
        lb.backend->find_related_external(doc, 5);
    RelatedResponse got;
    ASSERT_TRUE(lb.client->ask(text, 5, &got).ok());
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(got.num_docs, want.num_docs);
    expect_identical(got.results, want.results, "ask");
  }
}

TEST(NetServer, QueryUnknownDocAnswersUnknownDocError) {
  Loopback lb = start_loopback({});
  RelatedResponse got;
  CallResult result =
      lb.client->query(lb.backend->next_id() + 100, 3, &got);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, ErrCode::kUnknownDoc);
}

// ------------------------------------------------------------ ingest ----

TEST(NetServer, AddPostAcksNextIdAndPublishes) {
  Loopback lb = start_loopback({});
  const DocId expect_id = lb.backend->next_id();
  const uint64_t epoch_before = lb.backend->epoch();
  const std::string text = ingest_texts(1, 33).front();

  DocId id = 0;
  ASSERT_TRUE(lb.client->add_post(text, &id).ok());
  EXPECT_EQ(id, expect_id);
  EXPECT_EQ(lb.backend->epoch(), epoch_before + 1);
  EXPECT_EQ(lb.backend->num_docs(), kPosts + 1);

  // The acked post is immediately queryable over the same socket.
  RelatedResponse related;
  ASSERT_TRUE(lb.client->query(id, 3, &related).ok());
  ShardedServing::QueryResult want = lb.backend->find_related(id, 3);
  expect_identical(related.results, want.results, "post-ingest query");
}

TEST(NetServer, AddPostsAcksAllIdsInOrder) {
  Loopback lb = start_loopback({});
  const DocId first = lb.backend->next_id();
  std::vector<std::string> texts = ingest_texts(3, 44);

  std::vector<DocId> ids;
  ASSERT_TRUE(lb.client->add_posts(texts, &ids).ok());
  ASSERT_EQ(ids.size(), texts.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], first + static_cast<DocId>(i));
  }
  EXPECT_EQ(lb.backend->num_docs(), kPosts + texts.size());
}

TEST(NetServer, EmptyAddPostIsBadRequest) {
  Loopback lb = start_loopback({});
  DocId id = 0;
  CallResult result = lb.client->add_post("", &id);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, ErrCode::kBadRequest);
  // The rejection consumed no id and published nothing.
  EXPECT_EQ(lb.backend->num_docs(), kPosts);
}

// ------------------------------------------------ background recluster ----

TEST(NetServer, ReclusterOverSocketSwapsGenerationBitIdentical) {
  Loopback lb = start_loopback({});
  std::vector<std::string> texts = ingest_texts(5, 55);
  std::vector<DocId> ids;
  ASSERT_TRUE(lb.client->add_posts(texts, &ids).ok());
  ASSERT_EQ(lb.backend->offline_generation(), 0u);

  ReclusteredResponse resp;
  ASSERT_TRUE(lb.client->recluster(&resp).ok());
  EXPECT_EQ(resp.generation, 1u);
  EXPECT_GT(resp.num_clusters, 0u);
  EXPECT_EQ(lb.backend->offline_generation(), 1u);

  // Post-swap wire answers are bit-identical to a cold deployment built
  // over the full corpus (the recluster identity, observed end to end
  // through the socket).
  std::vector<Document> docs = corpus_docs(kPosts, 11);
  for (size_t i = 0; i < texts.size(); ++i) {
    docs.push_back(Document::analyze(ids[i], texts[i]));
  }
  ServingOptions serving;
  serving.num_shards = 2;
  auto cold = ShardedServing::create(std::move(docs), {}, serving);
  ASSERT_NE(cold, nullptr);
  for (DocId doc = 0; doc < static_cast<DocId>(cold->num_docs()); ++doc) {
    RelatedResponse got;
    ASSERT_TRUE(lb.client->query(doc, 5, &got).ok()) << "doc " << doc;
    expect_identical(got.results, cold->find_related(doc, 5).results,
                     "post-recluster doc " + std::to_string(doc));
  }

  // A second epoch over the same corpus keeps counting.
  ASSERT_TRUE(lb.client->recluster(&resp).ok());
  EXPECT_EQ(resp.generation, 2u);
}

TEST(NetServer, ReclusterWithPayloadIsBadRequest) {
  Loopback lb = start_loopback({});
  MsgType type = MsgType::kError;
  std::string payload;
  CallResult result =
      lb.client->call(MsgType::kRecluster, "x", &type, &payload);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_EQ(result.error.code, ErrCode::kBadRequest);
  EXPECT_EQ(lb.backend->offline_generation(), 0u);
}

TEST(NetServer, ReclusterWorkerFiresAndDrainStopsIt) {
  // The server-owned trigger loop: --recluster-max-docs=3 wiring. Five
  // ingests trip the threshold; the worker must fire in the background,
  // and the drain must stop/join it before the process would exit.
  ServerOptions options;
  options.recluster.max_docs_since = 3;
  options.recluster.poll_interval_ms = 2;
  Loopback lb = start_loopback(options);
  std::vector<DocId> ids;
  ASSERT_TRUE(lb.client->add_posts(ingest_texts(5, 66), &ids).ok());
  for (int i = 0; i < 2000 && lb.backend->offline_generation() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(lb.backend->offline_generation(), 1u);
  // Queries keep answering across/after the background swap.
  RelatedResponse got;
  ASSERT_TRUE(lb.client->query(ids[0], 3, &got).ok());
  ASSERT_TRUE(lb.client->drain().ok());
  lb.server->wait_drained();  // hangs here if the worker were not joined
}

// ------------------------------------------------- protocol policing ----

TEST(NetServer, MalformedPayloadGetsErrorAndConnectionSurvives) {
  Loopback lb = start_loopback({});
  // Well-framed QUERY whose payload is one byte short: payload error →
  // ERROR/BAD_REQUEST, stream stays usable (PROTOCOL.md §6).
  MsgType type = MsgType::kError;
  std::string payload;
  CallResult result =
      lb.client->call(MsgType::kQuery, std::string(7, '\0'), &type, &payload);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_EQ(result.error.code, ErrCode::kBadRequest);

  PongResponse pong;
  EXPECT_TRUE(lb.client->ping(&pong).ok()) << "connection should survive";
}

TEST(NetServer, UnknownMessageTypeGetsErrorAndConnectionSurvives) {
  Loopback lb = start_loopback({});
  // 0x42 is well-framed but not a defined request type.
  MsgType type = MsgType::kError;
  std::string payload;
  CallResult result =
      lb.client->call(static_cast<MsgType>(0x42), "xyzzy", &type, &payload);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_EQ(result.error.code, ErrCode::kBadRequest);

  PongResponse pong;
  EXPECT_TRUE(lb.client->ping(&pong).ok());
}

TEST(NetServer, MalformedFrameClosesConnection) {
  Loopback lb = start_loopback({});
  RawSocket raw(lb.server->port());
  ASSERT_GE(raw.fd, 0);
  // Twelve bytes that are not a frame: framing is unrecoverable, so the
  // server must close (PROTOCOL.md §6) — no error frame, just EOF.
  ASSERT_TRUE(raw.send_bytes("this is not an IBSN frame"));
  EXPECT_TRUE(raw.closed_by_peer());

  // The listener is unaffected: a well-behaved client still works.
  PongResponse pong;
  EXPECT_TRUE(lb.client->ping(&pong).ok());
}

TEST(NetServer, WrongProtocolVersionClosesConnection) {
  Loopback lb = start_loopback({});
  RawSocket raw(lb.server->port());
  ASSERT_GE(raw.fd, 0);
  std::string frame;
  encode_frame(MsgType::kPing, {}, &frame);
  frame[4] = 9;  // future version — must be refused, not guessed at
  ASSERT_TRUE(raw.send_bytes(frame));
  EXPECT_TRUE(raw.closed_by_peer());
}

// --------------------------------------------------- admission control ----

TEST(NetServer, OverloadAnswersOverloadedError) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_in_flight = 1;
  options.debug_handler_delay_ms = 400;
  Loopback lb = start_loopback(options);

  // Fill the single in-flight slot from a second connection, then the
  // fixture client's request must be rejected at admission.
  std::unique_ptr<Client> filler =
      Client::connect("127.0.0.1", lb.server->port());
  ASSERT_NE(filler, nullptr);
  std::thread slow([&filler] {
    PongResponse pong;
    EXPECT_TRUE(filler->ping(&pong).ok());  // slow but eventually answered
  });
  // Give the slow request time to be admitted (it then sleeps ~400 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  PongResponse pong;
  CallResult result = lb.client->ping(&pong);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, ErrCode::kOverloaded);
  slow.join();
}

TEST(NetServer, QueueWaitPastDeadlineAnswersTimeoutError) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_in_flight = 4;  // admit both; the second waits in queue
  options.request_timeout_sec = 0.1;
  options.debug_handler_delay_ms = 400;
  Loopback lb = start_loopback(options);

  std::unique_ptr<Client> filler =
      Client::connect("127.0.0.1", lb.server->port());
  ASSERT_NE(filler, nullptr);
  std::thread slow([&filler] {
    PongResponse pong;
    EXPECT_TRUE(filler->ping(&pong).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Queued behind a 400 ms request with a 100 ms deadline: by the time the
  // worker frees up, this request is expired and must not execute.
  PongResponse pong;
  CallResult result = lb.client->ping(&pong);
  ASSERT_TRUE(result.transport_ok);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, ErrCode::kTimeout);
  slow.join();
}

// --------------------------------------------------- stream contract ----

TEST(NetServer, HalfClosedClientStillGetsItsAnswer) {
  ServerOptions options;
  options.debug_handler_delay_ms = 100;
  Loopback lb = start_loopback(options);
  // The client is done writing but still reads: whether the server sees
  // EOF while the query executes (round 0) or right behind the request
  // bytes (round 1), it must answer before closing.
  for (int round = 0; round < 2; ++round) {
    RawSocket raw(lb.server->port());
    ASSERT_GE(raw.fd, 0);
    ASSERT_TRUE(raw.send_bytes(query_frame(3, 5)));
    if (round == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(::shutdown(raw.fd, SHUT_WR), 0);

    MsgType type = MsgType::kError;
    std::string payload;
    ASSERT_TRUE(raw.read_frame(&type, &payload)) << "round " << round;
    EXPECT_EQ(type, MsgType::kRelated) << "round " << round;
    EXPECT_EQ(payload, related_payload(*lb.backend, 3, 5)) << "round " << round;
    EXPECT_TRUE(raw.closed_by_peer()) << "round " << round;
  }
}

TEST(NetServer, PipelinedBurstAnsweredInOrder) {
  ServerOptions options;
  options.num_workers = 4;
  options.max_output_bytes = 4096;
  Loopback lb = start_loopback(options);
  RawSocket raw(lb.server->port());
  ASSERT_GE(raw.fd, 0);

  // 600 queries in one write, with answers of up to 20 results each: far
  // more than the output bound, so the server parks the burst behind its
  // backpressure until this client reads.
  constexpr size_t kBurst = 600;
  const DocId num_docs = static_cast<DocId>(lb.backend->num_docs());
  auto doc_of = [&](size_t i) { return static_cast<DocId>(i % num_docs); };
  auto k_of = [](size_t i) { return static_cast<uint32_t>(1 + i % 20); };
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) burst += query_frame(doc_of(i), k_of(i));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(raw.send_bytes(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The backed-up connection throttles only itself.
  PongResponse pong;
  ASSERT_TRUE(lb.client->ping(&pong).ok());

  for (size_t i = 0; i < kBurst; ++i) {
    MsgType type = MsgType::kError;
    std::string payload;
    ASSERT_TRUE(raw.read_frame(&type, &payload)) << "answer " << i;
    ASSERT_EQ(type, MsgType::kRelated) << "answer " << i;
    ASSERT_EQ(payload, related_payload(*lb.backend, doc_of(i), k_of(i)))
        << "answer " << i;
  }
  // A lost wake for parked input shows only as delay: every pipelined
  // request would wait out the I/O thread's 100 ms poll tick (60 s here).
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(15));
}

TEST(NetServer, AnswerOfAResetConnectionNeverReachesItsFdSuccessor) {
  ServerOptions options;
  options.debug_handler_delay_ms = 200;
  Loopback lb = start_loopback(options);
  std::string ping;
  encode_frame(MsgType::kPing, {}, &ping);
  for (int round = 0; round < 3; ++round) {
    {
      RawSocket doomed(lb.server->port());
      ASSERT_GE(doomed.fd, 0);
      ASSERT_TRUE(doomed.send_bytes(query_frame(1, 5)));
      // Let the query be admitted, then reset the connection while the
      // handler still runs: SO_LINGER {1, 0} makes close() send RST.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      linger reset{1, 0};
      ASSERT_EQ(::setsockopt(doomed.fd, SOL_SOCKET, SO_LINGER, &reset,
                             sizeof(reset)),
                0);
    }
    // The server closes its side at once, so the next accept may reuse
    // the descriptor the executing query will answer on.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RawSocket fresh(lb.server->port());
    ASSERT_GE(fresh.fd, 0);
    ASSERT_TRUE(fresh.send_bytes(ping));
    MsgType type = MsgType::kError;
    std::string payload;
    ASSERT_TRUE(fresh.read_frame(&type, &payload)) << "round " << round;
    EXPECT_EQ(type, MsgType::kPong) << "round " << round;
  }
}

// ----------------------------------------------------------- metrics ----

TEST(NetServer, MetricsOverTheWire) {
  Loopback lb = start_loopback({});
  PongResponse pong;
  ASSERT_TRUE(lb.client->ping(&pong).ok());

  std::string text;
  ASSERT_TRUE(lb.client->metrics(0, &text).ok());
  EXPECT_NE(text.find("ibseg_net_connections"), std::string::npos);
  EXPECT_NE(text.find("ibseg_net_requests_total"), std::string::npos);
  EXPECT_NE(text.find("ibseg_net_request_seconds"), std::string::npos);
  EXPECT_NE(text.find("cmd=\"ping\""), std::string::npos);

  std::string json;
  ASSERT_TRUE(lb.client->metrics(1, &json).ok());
  EXPECT_NE(json.find("ibseg_net_requests_total"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

// ----------------------------------------------------- save and drain ----

TEST(NetServer, SaveWithoutStateDirIsUnsupported) {
  Loopback lb = start_loopback({});
  CallResult result = lb.client->save();
  ASSERT_TRUE(result.transport_ok);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, ErrCode::kUnsupported);
}

TEST(NetServer, SaveCommandPersistsRestorableState) {
  const std::string dir = fresh_temp_dir("net_save_cmd");
  ServerOptions options;
  options.state_dir = dir;
  Loopback lb = start_loopback(options);

  DocId id = 0;
  ASSERT_TRUE(
      lb.client->add_post(ingest_texts(1, 55).front(), &id).ok());
  ASSERT_TRUE(lb.client->save().ok());

  std::unique_ptr<ShardedServing> restored = ShardedServing::restore(dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_docs(), lb.backend->num_docs());
  EXPECT_EQ(restored->epoch(), lb.backend->epoch());
}

TEST(NetServer, DrainLosesNoAcknowledgedAddPost) {
  const std::string dir = fresh_temp_dir("net_drain");
  ServerOptions options;
  options.state_dir = dir;

  // Reference: the same corpus + the same ingests, entirely in-process.
  const uint64_t seed = 11;
  std::vector<std::string> texts = ingest_texts(5, 66);
  ServingOptions ref_serving;
  ref_serving.num_shards = 2;
  std::unique_ptr<ShardedServing> reference =
      ShardedServing::create(corpus_docs(kPosts, seed), {}, ref_serving);
  ASSERT_NE(reference, nullptr);
  for (const std::string& text : texts) reference->add_post(text);

  Loopback lb = start_loopback(options, /*shards=*/2, seed);
  for (const std::string& text : texts) {
    DocId id = 0;
    ASSERT_TRUE(lb.client->add_post(text, &id).ok());
  }
  // Every ADD_POST above was acknowledged. DRAIN from the wire; the
  // response arrives before the server quiesces and saves.
  ASSERT_TRUE(lb.client->drain().ok());
  lb.server->wait_drained();
  EXPECT_TRUE(lb.server->draining());

  // Restore what the drain persisted: nothing acknowledged may be lost,
  // and every query must answer bit-identically to the reference.
  std::unique_ptr<ShardedServing> restored = ShardedServing::restore(dir);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->num_docs(), reference->num_docs());
  ASSERT_EQ(restored->epoch(), reference->epoch());
  const DocId num_docs = static_cast<DocId>(reference->num_docs());
  for (DocId doc = 0; doc < num_docs; ++doc) {
    ShardedServing::QueryResult want = reference->find_related(doc, 5);
    ShardedServing::QueryResult got = restored->find_related(doc, 5);
    expect_identical(got.results, want.results,
                     "restored doc " + std::to_string(doc));
  }
}

TEST(NetServer, RequestsAfterDrainAreRejected) {
  Loopback lb = start_loopback({});
  ASSERT_TRUE(lb.client->drain().ok());
  lb.server->wait_drained();

  // After the drain the old connection is gone and the listener is down:
  // either the send/recv fails or (in the narrow pre-close window) the
  // server answered ERROR/DRAINING. Both are documented outcomes; what
  // must never happen is a successful PONG.
  PongResponse pong;
  CallResult result = lb.client->ping(&pong);
  if (result.transport_ok) {
    EXPECT_EQ(result.response_type, MsgType::kError);
    EXPECT_EQ(result.error.code, ErrCode::kDraining);
  }
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(Client::connect("127.0.0.1", lb.server->port(), 0.5), nullptr);
}

TEST(NetServer, LocalDrainCompletesWithIdleConnections) {
  Loopback lb = start_loopback({});
  PongResponse pong;
  ASSERT_TRUE(lb.client->ping(&pong).ok());
  // drain() must not hang on the idle-but-open client connection.
  lb.server->drain();
  EXPECT_TRUE(lb.server->draining());
}

}  // namespace
}  // namespace net
}  // namespace ibseg
