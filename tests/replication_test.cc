// Replication suite (ctest label "replication"): WAL shipping between
// ShardedServing instances, the repl::Replica wire path (snapshot
// bootstrap, pull/apply/ack, lag gauges), read-only replica servers
// answering as the leader does (read-your-writes through the leader's
// PONG epoch; reads served while the leader is gone), and crash
// promotion.
//
// The load-bearing contract everywhere is BIT-IDENTITY: a follower that
// applied the leader's publication sequence through apply_shipped answers
// every query with the exact doubles the leader answers — so the
// differential assertions here use operator== on scores, never tolerances.
// The promotion test uses the same fork + _exit(2) crash model as
// kill_safety_test.cc: a child leader ingests durable posts and dies
// without any cleanup; the replica promotes from the dead leader's
// on-disk tail and must hold every acknowledged ingest.
//
// scripts/reproduce.sh IBSEG_REPL_CHECK=1 runs this label normally and
// under TSan.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "replication/replica.h"
#include "storage/wal_codec.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

constexpr int kChildExitCode = 2;

GeneratorOptions corpus_options(size_t posts, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 3;
  gen.seed = seed;
  return gen;
}

std::vector<Document> seed_docs() {
  return analyze_corpus(generate_corpus(corpus_options(18, 4242)));
}

std::vector<std::string> ingest_stream(size_t count = 10, uint64_t seed = 777) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(count, seed));
  std::vector<std::string> texts;
  for (const GeneratedPost& p : corpus.posts) texts.push_back(p.text);
  return texts;
}

/// Bit-identical comparison of two sharded deployments over every corpus
/// document: same ids, same ranking, operator== on the double scores.
void expect_identical_backends(const ShardedServing& a,
                               const ShardedServing& b) {
  ASSERT_EQ(a.epoch(), b.epoch());
  ASSERT_EQ(a.num_docs(), b.num_docs());
  ASSERT_EQ(a.next_id(), b.next_id());
  ASSERT_EQ(a.offline_generation(), b.offline_generation());
  const DocId num_docs = static_cast<DocId>(a.num_docs());
  for (DocId doc = 0; doc < num_docs; ++doc) {
    auto ra = a.find_related(doc, 5);
    auto rb = b.find_related(doc, 5);
    ASSERT_EQ(ra.results.size(), rb.results.size()) << "query " << doc;
    for (size_t i = 0; i < ra.results.size(); ++i) {
      ASSERT_EQ(ra.results[i].doc, rb.results[i].doc)
          << "query " << doc << " rank " << i;
      ASSERT_EQ(ra.results[i].score, rb.results[i].score)
          << "query " << doc << " rank " << i;
    }
  }
}

/// Pulls one segment from `leader` at the follower's cursor and applies
/// it (plus any mirrored recluster). Returns the number of frames applied.
size_t pull_once(const ShardedServing& leader, ShardedServing* follower,
                 uint32_t max_frames = 256,
                 uint32_t max_bytes = 4u * 1024u * 1024u) {
  ShardedServing::ShipSegment seg = leader.ship_segment(
      follower->epoch(), follower->offline_generation(), max_frames,
      max_bytes);
  EXPECT_EQ(seg.status, ShardedServing::ShipSegment::Status::kOk);
  std::vector<WalRecord> records;
  EXPECT_TRUE(wal_parse_frames_exact(seg.raw.data(), seg.raw.size(),
                                     &records));
  EXPECT_EQ(records.size(), seg.frame_count);
  if (!records.empty()) {
    EXPECT_EQ(seg.base_seq, follower->epoch());
    EXPECT_EQ(seg.segment_generation, follower->offline_generation());
    EXPECT_TRUE(follower->apply_shipped(seg.base_seq, records));
  }
  if (seg.recluster_after) {
    EXPECT_EQ(follower->recluster(), seg.recluster_target);
  }
  return records.size();
}

// ----------------------------------------------- ship/apply (in-process) ----

TEST(WalShipping, ShipApplyBitIdenticalAtEveryFrameBoundary) {
  // Leader and follower start from the same seed corpus; the leader
  // ingests the stream; the follower pulls ONE frame at a time and must
  // be bit-identical to a leader prefix at every boundary. Shard counts
  // 1/2/4 — the publication sequence is shard-count-agnostic.
  const std::vector<std::string> stream = ingest_stream();
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ServingOptions options;
    options.num_shards = shards;
    auto leader = ShardedServing::create(seed_docs(), {}, options);
    auto follower = ShardedServing::create(seed_docs(), {}, options);
    ASSERT_NE(leader, nullptr);
    ASSERT_NE(follower, nullptr);

    for (const std::string& text : stream) leader->add_post(text);
    ASSERT_EQ(leader->epoch(), stream.size());

    while (follower->epoch() < leader->epoch()) {
      ASSERT_EQ(pull_once(*leader, follower.get(), /*max_frames=*/1), 1u);
      // Mid-stream the follower equals a leader *prefix*; the cheap
      // invariant to pin at every boundary is the epoch/id coordinates.
      ASSERT_EQ(follower->num_docs(),
                seed_docs().size() + follower->epoch());
    }
    expect_identical_backends(*leader, *follower);

    // Caught up: the next pull is empty and reports the leader's seq.
    ShardedServing::ShipSegment seg = leader->ship_segment(
        follower->epoch(), follower->offline_generation(), 256, 1u << 20);
    EXPECT_EQ(seg.status, ShardedServing::ShipSegment::Status::kOk);
    EXPECT_EQ(seg.frame_count, 0u);
    EXPECT_EQ(seg.leader_seq, leader->epoch());
  }
}

TEST(WalShipping, DuplicateDeliveryIsIdempotentAndGapsAreRejected) {
  ServingOptions options;
  options.num_shards = 2;
  auto leader = ShardedServing::create(seed_docs(), {}, options);
  auto follower = ShardedServing::create(seed_docs(), {}, options);
  for (const std::string& text : ingest_stream(4)) leader->add_post(text);

  ShardedServing::ShipSegment seg =
      leader->ship_segment(0, 0, 256, 1u << 20);
  ASSERT_EQ(seg.status, ShardedServing::ShipSegment::Status::kOk);
  std::vector<WalRecord> records;
  ASSERT_TRUE(
      wal_parse_frames_exact(seg.raw.data(), seg.raw.size(), &records));
  ASSERT_EQ(records.size(), 4u);

  // A gap (applying past the cursor) must be rejected outright.
  std::vector<WalRecord> tail(records.begin() + 2, records.end());
  EXPECT_FALSE(follower->apply_shipped(2, tail));
  EXPECT_EQ(follower->epoch(), 0u);

  ASSERT_TRUE(follower->apply_shipped(0, records));
  EXPECT_EQ(follower->epoch(), 4u);
  // Duplicate delivery (full overlap) re-checks ids and applies nothing.
  ASSERT_TRUE(follower->apply_shipped(0, records));
  EXPECT_EQ(follower->epoch(), 4u);
  expect_identical_backends(*leader, *follower);
}

TEST(WalShipping, ShipSegmentStatusesAndCaps) {
  ServingOptions options;
  options.num_shards = 2;
  auto leader = ShardedServing::create(seed_docs(), {}, options);
  for (const std::string& text : ingest_stream(5)) leader->add_post(text);

  // A follower claiming to be ahead of the leader is divergent.
  EXPECT_EQ(leader->ship_segment(leader->epoch() + 1, 0, 4, 1u << 20).status,
            ShardedServing::ShipSegment::Status::kAhead);

  // A generation the leader's history never produced is unservable.
  EXPECT_EQ(leader->ship_segment(0, 99, 4, 1u << 20).status,
            ShardedServing::ShipSegment::Status::kSnapshotNeeded);

  // max_frames caps the segment.
  ShardedServing::ShipSegment capped = leader->ship_segment(0, 0, 2, 1u << 20);
  EXPECT_EQ(capped.status, ShardedServing::ShipSegment::Status::kOk);
  EXPECT_EQ(capped.frame_count, 2u);
  EXPECT_EQ(capped.base_seq, 0u);
  EXPECT_EQ(capped.leader_seq, 5u);

  // max_bytes of 1 cannot hold any frame, but a segment must still make
  // progress: one oversized frame ships alone.
  ShardedServing::ShipSegment tiny = leader->ship_segment(0, 0, 4, 1);
  EXPECT_EQ(tiny.status, ShardedServing::ShipSegment::Status::kOk);
  EXPECT_EQ(tiny.frame_count, 1u);
}

TEST(WalShipping, ReclusterBoundaryIsMirroredExactly) {
  // The leader ingests, runs a background re-clustering epoch, ingests
  // more. Segments must stop AT the boundary (never straddle it), tell
  // the follower to recluster, and the follower's mirrored rebuild —
  // over the identical corpus cut — lands on the identical clustering.
  const std::vector<std::string> stream = ingest_stream(7);
  ServingOptions options;
  options.num_shards = 2;
  auto leader = ShardedServing::create(seed_docs(), {}, options);
  auto follower = ShardedServing::create(seed_docs(), {}, options);

  for (size_t i = 0; i < 4; ++i) leader->add_post(stream[i]);
  ASSERT_EQ(leader->recluster(), 1u);
  for (size_t i = 4; i < stream.size(); ++i) leader->add_post(stream[i]);

  // First pull: generous caps, but the segment must stop at seq 4 with
  // the recluster instruction.
  ShardedServing::ShipSegment first =
      leader->ship_segment(0, 0, 256, 1u << 20);
  ASSERT_EQ(first.status, ShardedServing::ShipSegment::Status::kOk);
  EXPECT_EQ(first.frame_count, 4u);
  EXPECT_EQ(first.segment_generation, 0u);
  EXPECT_TRUE(first.recluster_after);
  EXPECT_EQ(first.recluster_target, 1u);

  while (follower->epoch() < leader->epoch()) {
    pull_once(*leader, follower.get());
  }
  EXPECT_EQ(follower->offline_generation(), 1u);
  expect_identical_backends(*leader, *follower);

  // A follower still at generation 0 but past the boundary cut is not
  // servable from history — it must re-bootstrap.
  EXPECT_EQ(leader->ship_segment(5, 0, 4, 1u << 20).status,
            ShardedServing::ShipSegment::Status::kSnapshotNeeded);
}

// --------------------------------------------------- wire frame codecs ----

TEST(ReplicationFrames, RoundTripAndEveryPrefixRejected) {
  using namespace net;
  std::vector<std::pair<const char*, std::string>> payloads;
  std::string p;

  encode_subscribe_wal({42, 3, 256, 1u << 20, "replica-7"}, &p);
  payloads.emplace_back("subscribe_wal", p);

  p.clear();
  encode_wal_ack({41, "replica-7"}, &p);
  payloads.emplace_back("wal_ack", p);

  p.clear();
  encode_snapshot_chunk({"shard-1/snapshot.g2.v2", 65536, 4096}, &p);
  payloads.emplace_back("snapshot_chunk", p);

  p.clear();
  WalSegmentResponse seg;
  seg.base_seq = 42;
  seg.leader_seq = 44;
  seg.leader_generation = 3;
  seg.segment_generation = 3;
  seg.recluster_after = 1;
  seg.recluster_target = 4;
  seg.frame_count = 1;
  seg.raw = std::string("\x08\x00\x00\x00\x01\x02\x03\x04", 8) +
            std::string("\x2A\x00\x00\x00post", 8);
  encode_wal_segment(seg, &p);
  payloads.emplace_back("wal_segment", p);

  p.clear();
  SnapshotListingResponse listing;
  listing.generation = 3;
  listing.num_shards = 2;
  listing.files = {{"MANIFEST", 512, 0xDEADBEEF},
                   {"shard-0/snapshot.g3.v2", 8192, 7},
                   {"shard-1/snapshot.g3.v2", 8192, 8}};
  encode_snapshot_listing(listing, &p);
  payloads.emplace_back("snapshot_listing", p);

  p.clear();
  encode_snapshot_data({8192, "chunk bytes"}, &p);
  payloads.emplace_back("snapshot_data", p);

  auto decodes = [](const char* what, std::string_view bytes) {
    if (std::string_view(what) == "subscribe_wal") {
      SubscribeWalRequest out;
      return decode_subscribe_wal(bytes, &out);
    }
    if (std::string_view(what) == "wal_ack") {
      WalAckRequest out;
      return decode_wal_ack(bytes, &out);
    }
    if (std::string_view(what) == "snapshot_chunk") {
      SnapshotChunkRequest out;
      return decode_snapshot_chunk(bytes, &out);
    }
    if (std::string_view(what) == "wal_segment") {
      WalSegmentResponse out;
      return decode_wal_segment(bytes, &out);
    }
    if (std::string_view(what) == "snapshot_listing") {
      SnapshotListingResponse out;
      return decode_snapshot_listing(bytes, &out);
    }
    SnapshotDataResponse out;
    return decode_snapshot_data(bytes, &out);
  };

  for (const auto& [what, payload] : payloads) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(decodes(what, payload)) << "full payload must decode";
    // Every strict prefix must be rejected: the new codecs all pin their
    // variable-length field to exactly the remaining bytes, so nothing
    // shorter can be a valid payload.
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(decodes(what, std::string_view(payload.data(), len)))
          << "prefix of length " << len << " must be rejected";
    }
  }

  // Field-level goldens for the richest type: decode the encoded segment
  // back and compare every field.
  WalSegmentResponse out;
  ASSERT_TRUE(decode_wal_segment(payloads[3].second, &out));
  EXPECT_EQ(out.base_seq, 42u);
  EXPECT_EQ(out.leader_seq, 44u);
  EXPECT_EQ(out.leader_generation, 3u);
  EXPECT_EQ(out.segment_generation, 3u);
  EXPECT_EQ(out.recluster_after, 1u);
  EXPECT_EQ(out.recluster_target, 4u);
  EXPECT_EQ(out.frame_count, 1u);
  EXPECT_EQ(out.raw, seg.raw);
}

// -------------------------------------------------- wire replica (repl) ----

/// A leader deployment with persistence + a Server over it.
struct WireLeader {
  std::string dir;
  std::unique_ptr<ShardedServing> backend;
  std::unique_ptr<net::Server> server;
};

WireLeader start_wire_leader(const std::string& name, int shards = 2) {
  WireLeader leader;
  leader.dir = fresh_temp_dir("repl_" + name);
  ServingOptions serving;
  serving.num_shards = shards;
  serving.persist.shard_dir = leader.dir;
  leader.backend = ShardedServing::create(seed_docs(), {}, serving);
  EXPECT_NE(leader.backend, nullptr);
  net::ServerOptions options;
  options.port = 0;
  options.state_dir = leader.dir;
  leader.server = std::make_unique<net::Server>(leader.backend.get(), options);
  EXPECT_TRUE(leader.server->start());
  return leader;
}

TEST(WireReplica, BootstrapCatchUpAndLagGauges) {
  WireLeader leader = start_wire_leader("wire_catchup");
  for (const std::string& text : ingest_stream(2, 31)) {
    leader.backend->add_post(text);
  }

  repl::ReplicaOptions options;
  options.leader_port = leader.server->port();
  options.dir = fresh_temp_dir("repl_wire_catchup_replica");
  options.replica_id = "wire-catchup";  // unique: the metrics registry is
                                        // process-global across tests
  options.max_frames = 1;               // one frame per pull → visible lag
  auto replica = repl::Replica::bootstrap(options);
  ASSERT_NE(replica, nullptr);
  // SNAPSHOT_LIST saves the leader first, so the bootstrap snapshot
  // already contains both pre-bootstrap ingests.
  EXPECT_EQ(replica->backend().epoch(), 2u);

  // Three more leader ingests; with max_frames=1 the replica needs three
  // pulls, and the lag gauges must count down 2 → 1 → 0.
  for (const std::string& text : ingest_stream(3, 32)) {
    leader.backend->add_post(text);
  }
  obs::Gauge& lag_frames = obs::MetricsRegistry::global().gauge(
      "ibseg_replica_lag_frames", "", {{"replica", options.replica_id}});
  obs::Gauge& leader_lag = obs::MetricsRegistry::global().gauge(
      "ibseg_leader_replica_lag_frames", "",
      {{"replica", options.replica_id}});

  ASSERT_EQ(replica->step(), repl::Replica::StepStatus::kApplied);
  EXPECT_EQ(replica->backend().epoch(), 3u);
  EXPECT_EQ(lag_frames.value(), 2.0);
  EXPECT_EQ(leader_lag.value(), 2.0);  // set by the WAL_ACK round trip
  EXPECT_EQ(replica->last_leader_seq(), 5u);

  ASSERT_EQ(replica->step(), repl::Replica::StepStatus::kApplied);
  EXPECT_EQ(lag_frames.value(), 1.0);
  ASSERT_EQ(replica->step(), repl::Replica::StepStatus::kCaughtUp);
  EXPECT_EQ(lag_frames.value(), 0.0);
  EXPECT_EQ(leader_lag.value(), 0.0);

  obs::Counter& applied = obs::MetricsRegistry::global().counter(
      "ibseg_replica_applied_total", "", {{"replica", options.replica_id}});
  EXPECT_EQ(applied.value(), 3u);

  expect_identical_backends(*leader.backend, replica->backend());

  // A replica restart recovers from its own directory (the applied
  // frames were logged) and resumes caught up.
  replica.reset();
  options.replica_id = "wire-catchup-restarted";
  auto again = repl::Replica::bootstrap(options);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->backend().epoch(), 5u);
  EXPECT_EQ(again->step(), repl::Replica::StepStatus::kCaughtUp);
  expect_identical_backends(*leader.backend, again->backend());
}

TEST(WireReplica, PollingThreadFollowsLeaderIngest) {
  WireLeader leader = start_wire_leader("wire_poll");

  repl::ReplicaOptions options;
  options.leader_port = leader.server->port();
  options.dir = fresh_temp_dir("repl_wire_poll_replica");
  options.replica_id = "wire-poll";
  options.poll_interval_ms = 5;
  auto replica = repl::Replica::bootstrap(options);
  ASSERT_NE(replica, nullptr);
  replica->start_polling();

  for (const std::string& text : ingest_stream(4, 33)) {
    leader.backend->add_post(text);
  }
  for (int i = 0; i < 2000 && replica->backend().epoch() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  replica->stop();
  ASSERT_EQ(replica->backend().epoch(), 4u);
  expect_identical_backends(*leader.backend, replica->backend());
}

/// Bootstraps a replica of `leader` over the wire; `name` keys its
/// directory and its replica id (unique: the metrics registry is
/// process-global across tests).
std::unique_ptr<repl::Replica> bootstrap_replica(const WireLeader& leader,
                                                 const std::string& name) {
  repl::ReplicaOptions options;
  options.leader_port = leader.server->port();
  options.dir = fresh_temp_dir("repl_" + name + "_replica");
  options.replica_id = name;
  return repl::Replica::bootstrap(options);
}

/// Steps `replica` until it stops applying; returns the last status
/// (kCaughtUp once it holds everything the leader published).
repl::Replica::StepStatus step_until_settled(repl::Replica* replica) {
  repl::Replica::StepStatus status = repl::Replica::StepStatus::kApplied;
  for (int i = 0; i < 10 && status == repl::Replica::StepStatus::kApplied;
       ++i) {
    status = replica->step();
  }
  return status;
}

/// A read-only server over the replica's backend, as ibseg_server runs
/// it with --replicate-from.
std::unique_ptr<net::Server> start_replica_server(repl::Replica* replica) {
  net::ServerOptions options;
  options.port = 0;
  options.read_only = true;
  auto server = std::make_unique<net::Server>(&replica->backend(), options);
  EXPECT_TRUE(server->start());
  return server;
}

/// A RELATED answer read over the wire against the leader's in-process
/// answer: same epoch and corpus size, same ids, same score bits.
void expect_leader_answer(const net::RelatedResponse& got,
                          const ShardedServing& leader,
                          const ShardedServing::QueryResult& want,
                          const std::string& what) {
  EXPECT_EQ(got.epoch, leader.epoch()) << what;
  EXPECT_EQ(got.num_docs, leader.num_docs()) << what;
  ASSERT_EQ(got.results.size(), want.results.size()) << what;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].doc, want.results[i].doc)
        << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.results[i].score),
              std::bit_cast<uint64_t>(want.results[i].score))
        << what << " rank " << i;
  }
}

TEST(WireReplica, ReadOnlyServerRejectsMutationsButServesReads) {
  // Read clients that want a replica's answers connect to the replica's
  // own server. Once caught up, its wire answers are the leader's: same
  // ids, same score bits, same epoch and corpus size.
  WireLeader leader = start_wire_leader("wire_readonly");
  auto replica = bootstrap_replica(leader, "wire-readonly");
  ASSERT_NE(replica, nullptr);

  // Two publications the bootstrap snapshot does not hold, so the answers
  // below come from frames the replica applied over the wire.
  for (const std::string& text : ingest_stream(2, 34)) {
    ASSERT_TRUE(leader.backend->add_post(text).has_value());
  }
  ASSERT_EQ(step_until_settled(replica.get()),
            repl::Replica::StepStatus::kCaughtUp);

  auto replica_server = start_replica_server(replica.get());
  auto client = net::Client::connect("127.0.0.1", replica_server->port());
  ASSERT_NE(client, nullptr);

  DocId id = 0;
  net::CallResult add = client->add_post("a post the replica must refuse", &id);
  EXPECT_TRUE(add.transport_ok);
  EXPECT_FALSE(add.ok());
  EXPECT_EQ(add.error.code, net::ErrCode::kUnsupported);

  std::vector<DocId> ids;
  net::CallResult batch = client->add_posts({"refused", "too"}, &ids);
  EXPECT_TRUE(batch.transport_ok);
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.error.code, net::ErrCode::kUnsupported);

  net::ReclusteredResponse reclustered;
  net::CallResult recluster = client->recluster(&reclustered);
  EXPECT_TRUE(recluster.transport_ok);
  EXPECT_FALSE(recluster.ok());
  EXPECT_EQ(recluster.error.code, net::ErrCode::kUnsupported);

  // Reads keep working, bit-identical to the leader's answers.
  const DocId num_docs = static_cast<DocId>(leader.backend->num_docs());
  for (DocId doc = 0; doc < num_docs; ++doc) {
    net::RelatedResponse got;
    ASSERT_TRUE(client->query(doc, 5, &got).ok()) << "doc " << doc;
    expect_leader_answer(got, *leader.backend,
                         leader.backend->find_related(doc, 5),
                         "doc " + std::to_string(doc));
  }
  const std::string post = ingest_stream(1, 35).front();
  net::RelatedResponse asked;
  ASSERT_TRUE(client->ask(post, 5, &asked).ok());
  expect_leader_answer(
      asked, *leader.backend,
      leader.backend->find_related_external(
          Document::analyze(1u << 30, post), 5),
      "ask");
}

TEST(WireReplica, ReadYourWritesByWaitingForTheLeadersPongEpoch) {
  // The freshness recipe of OPERATIONS.md §7: a RELATED answer's epoch,
  // set against the epoch of the leader's PONG, counts the publications
  // the answer trails. A client that must read its own write PINGs the
  // leader after the write and waits for a replica answer at that epoch.
  WireLeader leader = start_wire_leader("wire_fresh");
  auto replica = bootstrap_replica(leader, "wire-fresh");
  ASSERT_NE(replica, nullptr);
  ASSERT_EQ(replica->step(), repl::Replica::StepStatus::kCaughtUp);

  auto replica_server = start_replica_server(replica.get());
  auto writer = net::Client::connect("127.0.0.1", leader.server->port());
  ASSERT_NE(writer, nullptr);
  auto reader = net::Client::connect("127.0.0.1", replica_server->port());
  ASSERT_NE(reader, nullptr);

  DocId written = 0;
  ASSERT_TRUE(writer->add_post(ingest_stream(1, 36).front(), &written).ok());
  net::PongResponse pong;
  ASSERT_TRUE(writer->ping(&pong).ok());
  EXPECT_EQ(pong.epoch, leader.backend->epoch());
  EXPECT_EQ(pong.num_docs, leader.backend->num_docs());

  // The replica has not pulled yet: its answers trail the PONG by the one
  // write, and the written post is not there to query.
  net::RelatedResponse stale;
  ASSERT_TRUE(reader->query(0, 5, &stale).ok());
  EXPECT_EQ(pong.epoch - stale.epoch, 1u);
  EXPECT_EQ(pong.num_docs - stale.num_docs, 1u);
  net::RelatedResponse absent;
  net::CallResult unknown = reader->query(written, 5, &absent);
  EXPECT_TRUE(unknown.transport_ok);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error.code, net::ErrCode::kUnknownDoc);

  // Once the replica applied the write's frame, its answers carry the
  // PONG's epoch and the written post is scored as the leader scores it.
  ASSERT_EQ(step_until_settled(replica.get()),
            repl::Replica::StepStatus::kCaughtUp);
  net::RelatedResponse fresh;
  ASSERT_TRUE(reader->query(written, 5, &fresh).ok());
  EXPECT_EQ(fresh.epoch, pong.epoch);
  expect_leader_answer(fresh, *leader.backend,
                       leader.backend->find_related(written, 5),
                       "written doc " + std::to_string(written));
  net::RelatedResponse caught_up;
  ASSERT_TRUE(reader->query(0, 5, &caught_up).ok());
  expect_leader_answer(caught_up, *leader.backend,
                       leader.backend->find_related(0, 5), "doc 0");
}

TEST(WireReplica, ServesReadsWhileTheLeaderIsGone) {
  // A replica's readers do not go through the leader: once the leader's
  // server is gone, the pull fails with a transport error and the replica
  // keeps answering QUERY and ASK from the state it last applied, bit for
  // bit the leader's answers at that epoch.
  WireLeader leader = start_wire_leader("wire_orphan");
  auto replica = bootstrap_replica(leader, "wire-orphan");
  ASSERT_NE(replica, nullptr);
  for (const std::string& text : ingest_stream(2, 37)) {
    ASSERT_TRUE(leader.backend->add_post(text).has_value());
  }
  ASSERT_EQ(step_until_settled(replica.get()),
            repl::Replica::StepStatus::kCaughtUp);

  auto replica_server = start_replica_server(replica.get());
  auto reader = net::Client::connect("127.0.0.1", replica_server->port());
  ASSERT_NE(reader, nullptr);

  leader.server->drain();
  leader.server.reset();
  EXPECT_EQ(replica->step(), repl::Replica::StepStatus::kTransportError);
  EXPECT_EQ(replica->last_status(),
            repl::Replica::StepStatus::kTransportError);

  // The leader's backend is still in this process, at the epoch the
  // replica holds, so it still says what every answer must be.
  const DocId num_docs = static_cast<DocId>(leader.backend->num_docs());
  for (DocId doc = 0; doc < num_docs; ++doc) {
    net::RelatedResponse got;
    ASSERT_TRUE(reader->query(doc, 5, &got).ok()) << "doc " << doc;
    expect_leader_answer(got, *leader.backend,
                         leader.backend->find_related(doc, 5),
                         "doc " + std::to_string(doc));
  }
  const std::string post = ingest_stream(1, 38).front();
  net::RelatedResponse asked;
  ASSERT_TRUE(reader->ask(post, 5, &asked).ok());
  expect_leader_answer(
      asked, *leader.backend,
      leader.backend->find_related_external(
          Document::analyze(1u << 30, post), 5),
      "ask");
}

// ----------------------------------------------------- crash promotion ----

/// Blocks until `path` exists (child/parent rendezvous files).
bool await_file(const std::string& path, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (std::ifstream(path).good()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

void touch(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  os << "x";
}

/// One promotion trial. The child is the leader: it restores the
/// committed base directory, serves the replication protocol, ingests K
/// durable posts on the parent's signal, and dies with _exit(2) — no
/// destructors, no flushes, exactly the kill_safety crash model. The
/// parent bootstraps a replica over the wire, optionally lets it catch
/// up (`catch_up_over_wire`), kills the leader, promotes, and asserts
/// the promoted replica holds every acknowledged ingest bit-identically
/// to a never-crashed reference.
void run_promotion_trial(const std::string& name, bool catch_up_over_wire) {
  constexpr size_t kIngests = 5;
  constexpr int kShards = 2;
  const std::string leader_dir = fresh_temp_dir("repl_" + name + "_leader");
  const std::string replica_dir =
      fresh_temp_dir("repl_" + name + "_replica");
  const std::string port_file = leader_dir + "/port";
  const std::string go_file = leader_dir + "/go";
  const std::string ingested_file = leader_dir + "/ingested";
  const std::string die_file = leader_dir + "/die";

  {
    ServingOptions serving;
    serving.num_shards = kShards;
    serving.persist.shard_dir = leader_dir;
    auto base = ShardedServing::create(seed_docs(), {}, serving);
    ASSERT_NE(base, nullptr);
    ASSERT_TRUE(base->save(leader_dir));
  }
  const std::vector<std::string> stream = ingest_stream();

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child leader. No gtest assertions: failures surface as exit
    // codes, never as duplicated test results.
    auto backend = ShardedServing::restore(leader_dir);
    if (backend == nullptr) _exit(42);
    net::ServerOptions options;
    options.port = 0;
    options.state_dir = leader_dir;
    net::Server server(backend.get(), options);
    if (!server.start()) _exit(43);
    {
      std::ofstream os(port_file + ".tmp", std::ios::trunc);
      os << server.port();
      os.flush();
      if (!os) _exit(44);
    }
    std::rename((port_file + ".tmp").c_str(), port_file.c_str());
    while (!std::ifstream(go_file).good()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Durable by write-ahead order: every add_post that returns has its
    // log frame on disk before publication.
    for (size_t i = 0; i < kIngests; ++i) backend->add_post(stream[i]);
    { std::ofstream os(ingested_file, std::ios::trunc); os << "x"; }
    while (!std::ifstream(die_file).good()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    _exit(kChildExitCode);  // server threads, log handle: all abandoned
  }

  // ---- parent: replica side.
  ASSERT_TRUE(await_file(port_file)) << "leader child never published a port";
  uint16_t port = 0;
  {
    std::ifstream is(port_file);
    unsigned long parsed = 0;
    is >> parsed;
    ASSERT_TRUE(is && parsed > 0 && parsed <= 65535);
    port = static_cast<uint16_t>(parsed);
  }

  repl::ReplicaOptions options;
  options.leader_port = port;
  options.dir = replica_dir;
  options.replica_id = "promotion-" + name;
  auto replica = repl::Replica::bootstrap(options);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->backend().epoch(), 0u);

  touch(go_file);
  ASSERT_TRUE(await_file(ingested_file)) << "leader child never ingested";

  if (catch_up_over_wire) {
    // Pull until at the leader's epoch — the promoted state then comes
    // almost entirely from applied segments, and the tail drain must be
    // a no-op that still verifies lineage.
    for (int i = 0; i < 2000 && replica->backend().epoch() < kIngests; ++i) {
      replica->step();
    }
    ASSERT_EQ(replica->backend().epoch(), kIngests);
  }

  touch(die_file);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  // Promotion: drain the dead leader's on-disk tail. In the stale-replica
  // variant the replica sits at epoch 0 and ALL five acknowledged ingests
  // come from the tail; in the caught-up variant the drain dedups.
  ASSERT_TRUE(replica->promote(leader_dir));
  EXPECT_EQ(replica->backend().epoch(), kIngests)
      << "promotion must surface every acknowledged leader ingest";

  // Never-crashed reference over the identical history.
  ServingOptions plain;
  plain.num_shards = kShards;
  auto reference = ShardedServing::create(seed_docs(), {}, plain);
  ASSERT_NE(reference, nullptr);
  for (size_t i = 0; i < kIngests; ++i) reference->add_post(stream[i]);
  expect_identical_backends(*reference, replica->backend());
}

TEST(Promotion, StaleReplicaPromotesFromDeadLeaderTails) {
  run_promotion_trial("stale", /*catch_up_over_wire=*/false);
}

TEST(Promotion, CaughtUpReplicaPromotesWithNoLoss) {
  run_promotion_trial("caught_up", /*catch_up_over_wire=*/true);
}

// Promotion first checks lineage: the follower's publication history must
// be a prefix of the dead leader's durable sequence (the manifest's order,
// then the records its log holds beyond it). A follower that applied the
// leader's second publication without the first has diverged — draining
// the log into it would publish that post twice — so promotion refuses
// it. A follower on the leader's history drains the rest and matches the
// leader.
TEST(Promotion, DivergentFollowerIsRefused) {
  const std::string leader_dir = fresh_temp_dir("repl_divergent_leader");
  const std::vector<std::string> stream = ingest_stream(2);
  ServingOptions persisted;
  persisted.num_shards = 2;
  persisted.persist.shard_dir = leader_dir;
  auto leader = ShardedServing::create(seed_docs(), {}, persisted);
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(leader->save(leader_dir));
  const DocId first = leader->add_post(stream[0]).value();
  const DocId second = leader->add_post(stream[1]).value();

  ServingOptions plain;
  plain.num_shards = 2;
  auto divergent = ShardedServing::create(seed_docs(), {}, plain);
  ASSERT_NE(divergent, nullptr);
  ASSERT_TRUE(divergent->apply_shipped(0, {WalRecord{second, stream[1]}}));
  EXPECT_FALSE(divergent->catch_up_from_dir(leader_dir));
  EXPECT_EQ(divergent->epoch(), 1u);

  auto follower = ShardedServing::create(seed_docs(), {}, plain);
  ASSERT_NE(follower, nullptr);
  ASSERT_TRUE(follower->apply_shipped(0, {WalRecord{first, stream[0]}}));
  ASSERT_TRUE(follower->catch_up_from_dir(leader_dir));
  expect_identical_backends(*leader, *follower);
  leader.reset();
  std::filesystem::remove_all(leader_dir);
}

}  // namespace
}  // namespace ibseg
