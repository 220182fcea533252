// Persistence tests (ctest label "storage"): the snapshot v2 binary
// format, the ingest WAL, and the state-directory save/restore of a
// one-shard ShardedServing. Crash *injection* (fork + _exit mid-ingest)
// lives in kill_safety_test.cc; this file covers the formats and the
// single-process recovery paths.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "oracle.h"
#include "storage/snapshot_v2.h"
#include "storage/wal.h"
#include "storage/wal_codec.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

std::vector<Document> seed_docs(size_t num_posts = 24) {
  GeneratorOptions gen;
  gen.num_posts = num_posts;
  gen.posts_per_scenario = 3;
  gen.seed = 99;
  return analyze_corpus(generate_corpus(gen));
}

std::vector<std::string> extra_posts(size_t count = 6) {
  GeneratorOptions gen;
  gen.num_posts = count;
  gen.posts_per_scenario = 2;
  gen.seed = 123;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::vector<std::string> texts;
  for (const GeneratedPost& p : corpus.posts) texts.push_back(p.text);
  return texts;
}

RelatedPostPipeline build_seed_pipeline(size_t num_posts = 24) {
  return RelatedPostPipeline::build(seed_docs(num_posts));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

size_t file_size(const std::string& path) { return read_file(path).size(); }

/// The one-shard serving facade over the seed corpus; `options` may name
/// a state directory.
std::unique_ptr<ShardedServing> seed_serving(size_t num_posts = 24,
                                             ServingOptions options = {}) {
  return ShardedServing::create(seed_docs(num_posts), {}, std::move(options));
}

/// Shard 0's snapshot inside a state directory written at `generation`.
std::string shard_snapshot(const std::string& dir, uint64_t generation = 0) {
  return dir + "/shard-0/" +
         (generation == 0 ? std::string("snapshot.v2")
                          : "snapshot.g" + std::to_string(generation) + ".v2");
}

/// Expects identical answers (same docs, same ranking) for every document
/// of every shard, with scores equal to within `tolerance` (0 =
/// bit-identical). `Reference` is another facade or the Oracle.
template <typename Reference>
void expect_same_answers(const ShardedServing& a, const Reference& b,
                         double tolerance) {
  ASSERT_EQ(a.num_docs(), b.num_docs());
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    for (const Document& d : a.shard(s).quiescent().docs()) {
      auto ra = a.find_related(d.id(), 5);
      auto rb = b.find_related(d.id(), 5);
      ASSERT_EQ(ra.results.size(), rb.results.size()) << "query " << d.id();
      for (size_t i = 0; i < ra.results.size(); ++i) {
        EXPECT_EQ(ra.results[i].doc, rb.results[i].doc)
            << "query " << d.id() << " rank " << i;
        if (tolerance == 0.0) {
          EXPECT_EQ(ra.results[i].score, rb.results[i].score)
              << "query " << d.id() << " rank " << i;
        } else {
          EXPECT_NEAR(ra.results[i].score, rb.results[i].score, tolerance)
              << "query " << d.id() << " rank " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------- snapshot v2 ----

TEST(SnapshotV2, SaveRestoreRoundTrip) {
  std::string path = fresh_temp_dir("snap_roundtrip");
  auto built = seed_serving();
  ShardedServing& serving = *built;
  size_t seed = serving.shard(0).seed_docs();
  for (const std::string& text : extra_posts()) serving.add_post(text);
  ASSERT_TRUE(serving.save(path));

  auto snap = load_snapshot_v2_file(shard_snapshot(path));
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->is_consistent());
  EXPECT_EQ(snap->doc_ids.size(), serving.num_docs());
  EXPECT_EQ(snap->num_seed_docs, seed);
  EXPECT_EQ(snap->next_id, serving.next_id());
  EXPECT_FALSE(snap->vocab_terms.empty());
  EXPECT_GT(snap->num_clusters, 0);
  // Labels cover exactly the seed segments, not the ingested tail.
  size_t seed_segments = 0;
  for (size_t d = 0; d < seed; ++d) {
    seed_segments += snap->segmentations[d].num_segments();
  }
  EXPECT_EQ(snap->seed_labels.size(), seed_segments);

  auto restored = ShardedServing::restore(path);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->shard(0).seed_docs(), seed);
  EXPECT_EQ(restored->epoch(), serving.epoch());
  EXPECT_EQ(restored->num_docs(), serving.num_docs());
  EXPECT_GE(restored->next_id(), serving.next_id());
  expect_same_answers(serving, *restored, 1e-9);
  restored.reset();
  std::filesystem::remove_all(path);
}

TEST(SnapshotV2, RestoredPipelineKeepsServing) {
  std::string path = fresh_temp_dir("snap_keeps_serving");
  auto built = seed_serving(12);
  ShardedServing& serving = *built;
  ASSERT_TRUE(serving.save(path));
  auto restored = ShardedServing::restore(path);
  ASSERT_NE(restored, nullptr);
  // Ids keep incrementing past the snapshot watermark; the invariant
  // num_docs == seed_docs + epoch survives the restart.
  DocId id =
      restored->add_post("the printer fails after the latest update").value();
  EXPECT_GE(id, serving.next_id());
  EXPECT_EQ(restored->num_docs(),
            restored->shard(0).seed_docs() + restored->epoch());
  auto r = restored->find_related(id, 3);
  EXPECT_EQ(r.num_docs, restored->num_docs());
  restored.reset();
  std::filesystem::remove_all(path);
}

TEST(SnapshotV2, EveryPrefixIsRejected) {
  const std::string dir = fresh_temp_dir("snap_prefix");
  std::string path = dir + "/snapshot.v2";
  ServingPipeline serving(build_seed_pipeline(6));
  ASSERT_TRUE(serving.save(path));
  const std::string data = read_file(path);
  ASSERT_GT(data.size(), 16u);
  for (size_t len = 0; len < data.size(); ++len) {
    std::istringstream prefix(data.substr(0, len));
    EXPECT_FALSE(load_snapshot_v2(prefix).has_value()) << "prefix " << len;
  }
  std::istringstream full(data);
  EXPECT_TRUE(load_snapshot_v2(full).has_value());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotV2, SingleByteCorruptionIsRejected) {
  const std::string dir = fresh_temp_dir("snap_bitflip");
  std::string path = dir + "/snapshot.v2";
  ServingPipeline serving(build_seed_pipeline(6));
  ASSERT_TRUE(serving.save(path));
  std::string data = read_file(path);
  // Flip one byte at a stride of positions across the whole file — magic,
  // section headers, stored CRCs and payloads alike; every flip must fail
  // the load (this is the detection the v1 text formats cannot give).
  for (size_t pos = 0; pos < data.size(); pos += 13) {
    std::string corrupt = data;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::istringstream is(corrupt);
    EXPECT_FALSE(load_snapshot_v2(is).has_value()) << "byte " << pos;
  }
  // Trailing garbage after the last section is also rejected.
  std::istringstream padded(data + "x");
  EXPECT_FALSE(load_snapshot_v2(padded).has_value());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotV2, SaveFileIsAtomicAndLoadable) {
  const std::string dir = fresh_temp_dir("snap_atomic");
  std::string path = dir + "/snapshot.v2";
  ServingPipeline shard(build_seed_pipeline(6));
  ASSERT_TRUE(shard.save(path));
  ASSERT_TRUE(load_snapshot_v2_file(path).has_value());
  // Unwritable target: reports failure, leaves the good file alone.
  EXPECT_FALSE(shard.save("/nonexistent-ibseg-dir/snap"));
  EXPECT_TRUE(load_snapshot_v2_file(path).has_value());
  std::filesystem::remove_all(dir);
}

/// A deployment one recluster into its life, with a non-trivial offline
/// section: pending pool, docs-since counter and post-recluster ingests
/// all non-empty when saved.
std::unique_ptr<ShardedServing> build_generation_one_pipeline() {
  ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;  // pool every ingest
  auto serving = seed_serving(24, options);
  std::vector<std::string> posts = extra_posts();
  for (size_t i = 0; i < 4; ++i) serving->add_post(posts[i]);
  [[maybe_unused]] uint64_t gen = serving->recluster();
  for (size_t i = 4; i < posts.size(); ++i) serving->add_post(posts[i]);
  return serving;
}

TEST(SnapshotV2, OfflineSectionRoundTripsAfterRecluster) {
  std::string path = fresh_temp_dir("snap_offline_roundtrip");
  auto serving = build_generation_one_pipeline();
  ASSERT_EQ(serving->offline_generation(), 1u);
  ASSERT_GT(serving->pending_pool_size(), 0u);
  ASSERT_GT(serving->docs_since_recluster(), 0u);
  ASSERT_TRUE(serving->save(path));

  auto snap = load_snapshot_v2_file(shard_snapshot(path, 1));
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->is_consistent());
  EXPECT_EQ(snap->offline_generation, 1u);
  EXPECT_EQ(snap->offline_docs, serving->shard(0).offline_docs());
  EXPECT_GT(snap->offline_docs, snap->num_seed_docs);
  EXPECT_EQ(snap->pending_pool, serving->shard(0).pending_pool());
  EXPECT_EQ(snap->docs_since_recluster, serving->docs_since_recluster());
  ASSERT_EQ(snap->centroids.size(), static_cast<size_t>(snap->num_clusters));
  // offline_labels cover exactly the segments of the documents between the
  // seed corpus and the offline horizon.
  size_t expected = 0;
  for (size_t d = snap->num_seed_docs; d < snap->offline_docs; ++d) {
    expected += snap->segmentations[d].num_segments();
  }
  EXPECT_EQ(snap->offline_labels.size(), expected);

  // And the full restore path consumes all of it (the bit-identity proof
  // lives in recluster_differential_test.cc; this is the format check).
  ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;
  auto restored = ShardedServing::restore(path, {}, options);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->offline_generation(), 1u);
  EXPECT_EQ(restored->shard(0).offline_docs(), serving->shard(0).offline_docs());
  EXPECT_EQ(restored->shard(0).pending_pool(), serving->shard(0).pending_pool());
  EXPECT_EQ(restored->docs_since_recluster(), serving->docs_since_recluster());
  expect_same_answers(*serving, *restored, 0.0);
  restored.reset();
  std::filesystem::remove_all(path);
}

TEST(SnapshotV2, EveryPrefixIsRejectedAtGenerationOne) {
  // The corruption sweeps re-run over a POST-RECLUSTER snapshot: the
  // offline section (generation, horizon, labels, centroids, pool,
  // counter) adds bytes the generation-0 sweeps never cover.
  std::string path = fresh_temp_dir("snap_offline_prefix");
  auto serving = build_generation_one_pipeline();
  ASSERT_TRUE(serving->save(path));
  const std::string data = read_file(shard_snapshot(path, 1));
  ASSERT_GT(data.size(), 16u);
  for (size_t len = 0; len < data.size(); ++len) {
    std::istringstream prefix(data.substr(0, len));
    EXPECT_FALSE(load_snapshot_v2(prefix).has_value()) << "prefix " << len;
  }
  std::istringstream full(data);
  auto snap = load_snapshot_v2(full);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->offline_generation, 1u);
  std::filesystem::remove_all(path);
}

TEST(SnapshotV2, SingleByteCorruptionIsRejectedAtGenerationOne) {
  std::string path = fresh_temp_dir("snap_offline_bitflip");
  auto serving = build_generation_one_pipeline();
  ASSERT_TRUE(serving->save(path));
  std::string data = read_file(shard_snapshot(path, 1));
  for (size_t pos = 0; pos < data.size(); pos += 13) {
    std::string corrupt = data;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::istringstream is(corrupt);
    EXPECT_FALSE(load_snapshot_v2(is).has_value()) << "byte " << pos;
  }
  std::istringstream padded(data + "x");
  EXPECT_FALSE(load_snapshot_v2(padded).has_value());
  std::filesystem::remove_all(path);
}

TEST(SnapshotV2, InflatedLengthFieldsDoNotAllocate) {
  // Fuzzer-found regression: a corrupt section size or element count used
  // to be trusted up to the 16 GiB sanity ceiling, so a handful of flipped
  // bits turned load into a multi-gigabyte allocation (and an OOM kill on
  // small hosts) before any read or CRC check could fail. The loader now
  // bounds every allocation by the bytes actually present, so these
  // crafted inputs must be rejected instantly. If this test runs for
  // seconds or dies, the bound regressed — the EXPECT is the smaller half
  // of the assertion.
  auto u32le = [](uint32_t v) {
    std::string s(4, '\0');
    for (int i = 0; i < 4; ++i) s[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    return s;
  };
  auto u64le = [&](uint64_t v) {
    return u32le(static_cast<uint32_t>(v)) +
           u32le(static_cast<uint32_t>(v >> 32));
  };
  const std::string prologue =
      std::string("IBSGSNP2") + u32le(2) + u32le(1);  // version, 1 section
  // Section header claiming an 8 GiB payload that is not there.
  {
    std::istringstream is(prologue + u32le(1) + u64le(uint64_t{1} << 33) +
                          u32le(0));
    EXPECT_FALSE(load_snapshot_v2(is).has_value());
  }
  // Giant declared payload with a few real bytes behind it: the chunked
  // read must stop at EOF, never allocate the declared size.
  {
    std::istringstream is(prologue + u32le(1) + u64le(uint64_t{1} << 33) +
                          u32le(0) + std::string(64, 'x'));
    EXPECT_FALSE(load_snapshot_v2(is).has_value());
  }
}

// --------------------------------------------------------------- WAL ----

TEST(Wal, AppendThenReplay) {
  const std::string dir = fresh_temp_dir("wal_replay");
  std::string path = dir + "/wal";
  std::vector<WalRecord> records = {
      {7, "first post text"}, {8, ""}, {9, "text with \n newline \\ slash"}};
  {
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, WalOptions{}, &replayed);
    ASSERT_NE(wal, nullptr);
    EXPECT_TRUE(replayed.empty());
    for (const WalRecord& r : records) ASSERT_TRUE(wal->append(r));
    EXPECT_EQ(wal->appended(), 3u);
  }
  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replayed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(replayed[i].id, records[i].id);
    EXPECT_EQ(replayed[i].text, records[i].text);
  }
  EXPECT_EQ(wal->appended(), 0u);  // replays don't count as appends
  std::filesystem::remove_all(dir);
}

TEST(Wal, TornTailIsTruncatedNotReplayed) {
  const std::string dir = fresh_temp_dir("wal_torn");
  std::string path = dir + "/wal";
  {
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, WalOptions{}, &replayed);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->append({1, "intact record one"}));
    ASSERT_TRUE(wal->append({2, "intact record two"}));
  }
  const std::string intact = read_file(path);

  // (a) garbage appended after the last complete record;
  // (b) a record torn mid-payload;
  // (c) a record torn inside the 8-byte frame header.
  const std::string torn_cases[] = {
      intact + std::string("\x2a\x00\x00\x00garbage-not-a-frame", 23),
      intact + std::string("\x10\x00\x00\x00\xde\xad\xbe\xef half", 13),
      intact + std::string("\x10\x00\x00", 3),
  };
  for (const std::string& torn : torn_cases) {
    write_file(path, torn);
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, WalOptions{}, &replayed);
    ASSERT_NE(wal, nullptr);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0].text, "intact record one");
    EXPECT_EQ(replayed[1].text, "intact record two");
    // The torn tail was physically truncated, so the next open (and any
    // append in between) starts from a clean end-of-log.
    EXPECT_EQ(file_size(path), intact.size());
  }

  // A corrupted byte *inside* an earlier record drops that record AND
  // everything after it — replaying past a gap would reorder publication.
  std::string mid_corrupt = intact;
  mid_corrupt[10] = static_cast<char>(mid_corrupt[10] ^ 0x01);
  write_file(path, mid_corrupt);
  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(file_size(path), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Wal, ResetEmptiesTheLog) {
  const std::string dir = fresh_temp_dir("wal_reset");
  std::string path = dir + "/wal";
  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->append({1, "soon to be obsolete"}));
  ASSERT_GT(file_size(path), 0u);
  ASSERT_TRUE(wal->reset());
  EXPECT_EQ(file_size(path), 0u);
  // The log keeps working after a reset.
  ASSERT_TRUE(wal->append({2, "post-reset record"}));
  wal.reset();
  std::vector<WalRecord> replayed2;
  auto wal2 = IngestWal::open(path, WalOptions{}, &replayed2);
  ASSERT_NE(wal2, nullptr);
  ASSERT_EQ(replayed2.size(), 1u);
  EXPECT_EQ(replayed2[0].id, 2u);
  std::filesystem::remove_all(dir);
}

TEST(Wal, FsyncPoliciesAllPersist) {
  for (WalFsync policy : {WalFsync::kNone, WalFsync::kEveryAppend}) {
    const std::string dir = fresh_temp_dir("wal_policy");
    std::string path = dir + "/wal";
    WalOptions opts;
    opts.fsync = policy;
    {
      std::vector<WalRecord> replayed;
      auto wal = IngestWal::open(path, opts, &replayed);
      ASSERT_NE(wal, nullptr);
      std::vector<WalRecord> batch = {{1, "a"}, {2, "b"}, {3, "c"}};
      ASSERT_TRUE(wal->append_batch(batch));
      EXPECT_EQ(wal->appended(), 3u);
    }
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, opts, &replayed);
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(replayed.size(), 3u);
    std::filesystem::remove_all(dir);
  }
}

namespace eintr_storm {
/// SIGUSR1 handler for the signal-storm test: does nothing — its only job
/// is to interrupt whatever syscall the WAL thread is inside. Installed
/// WITHOUT SA_RESTART, so an interrupted write(2)/read(2) really does
/// return EINTR instead of being transparently resumed by the kernel.
void on_signal(int) {}
}  // namespace eintr_storm

TEST(Wal, AppendsAndReplaySurviveASignalStormWithoutSaRestart) {
  // Regression for the EINTR bug: write_fully/read_fully treated EINTR as
  // a hard error, so a signal landing mid-syscall failed the append — an
  // ingest the client would then retry into a duplicate. A sibling thread
  // storms this thread with SIGUSR1 (no SA_RESTART) while records are
  // appended and while the log is reopened; every operation must succeed
  // and the replay must hold every record exactly once.
  struct sigaction action = {};
  struct sigaction saved = {};
  action.sa_handler = eintr_storm::on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately NOT SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &action, &saved), 0);

  const std::string dir = fresh_temp_dir("wal_eintr");
  std::string path = dir + "/wal";
  constexpr size_t kRecords = 64;
  // Large payloads keep each append inside write(2) long enough for the
  // storm to land there (a short write resumes through the same loop).
  const std::string payload(256 * 1024, 'x');

  std::atomic<bool> stop{false};
  pthread_t target = pthread_self();
  std::thread storm([&stop, target] {
    while (!stop.load(std::memory_order_acquire)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  {
    WalOptions opts;
    opts.fsync = WalFsync::kNone;  // the storm targets write(2), not fsync
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, opts, &replayed);
    ASSERT_NE(wal, nullptr);
    for (size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(wal->append({static_cast<DocId>(i), payload}))
          << "append " << i << " failed under the signal storm";
    }
  }
  // Reopen (and so replay through read_fully) with the storm still live.
  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);

  stop.store(true, std::memory_order_release);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &saved, nullptr), 0);

  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replayed.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replayed[i].id, static_cast<DocId>(i));
    EXPECT_EQ(replayed[i].text.size(), payload.size());
  }
  wal.reset();
  std::filesystem::remove_all(dir);
}

TEST(Wal, ResetReplacesTheInodeInsteadOfTruncatingInPlace) {
  // Regression for the stale-frame resurrection hazard: an in-place
  // ftruncate whose size change is lost to a power failure leaves the old
  // CRC-valid frames on disk, and post-reset appends overwriting them from
  // offset 0 can splice seamlessly into them. reset() therefore renames a
  // fresh empty inode over the log; the observable contract is that the
  // inode number CHANGES and the log keeps working.
  const std::string dir = fresh_temp_dir("wal_reset_inode");
  std::string path = dir + "/wal";
  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->append({1, "pre-reset record"}));

  struct stat before = {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  ASSERT_TRUE(wal->reset());
  struct stat after = {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_NE(before.st_ino, after.st_ino)
      << "reset() must replace the inode, not truncate it in place";
  EXPECT_EQ(after.st_size, 0);

  // Appends go to the new inode and replay from the path finds them.
  ASSERT_TRUE(wal->append({2, "post-reset record"}));
  wal.reset();
  std::vector<WalRecord> replayed2;
  auto wal2 = IngestWal::open(path, WalOptions{}, &replayed2);
  ASSERT_NE(wal2, nullptr);
  ASSERT_EQ(replayed2.size(), 1u);
  EXPECT_EQ(replayed2[0].id, 2u);
  EXPECT_EQ(replayed2[0].text, "post-reset record");
  wal2.reset();
  std::filesystem::remove_all(dir);
}

TEST(Wal, CrcValidFrameBeyondATornGapIsNeverReplayed) {
  // The frame scan stops at the FIRST invalid frame: a perfectly valid
  // frame sitting beyond torn bytes (e.g. a stale frame surviving a lost
  // truncation, or a partially overwritten region) must be dropped, not
  // resurrected — replaying past a gap would reorder publication. The
  // truncation must also physically remove it so no later scan can ever
  // see it again.
  const std::string dir = fresh_temp_dir("wal_gap");
  std::string path = dir + "/wal";
  std::string frame_a;
  wal_encode_frame({1, "record before the gap"}, &frame_a);
  std::string frame_c;
  wal_encode_frame({2, "CRC-valid record beyond the gap"}, &frame_c);
  const std::string torn("\x1f\x00\x00\x00\xde\xad", 6);
  write_file(path, frame_a + torn + frame_c);

  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].id, 1u);
  EXPECT_EQ(file_size(path), frame_a.size())
      << "the gap AND the valid frame beyond it must be truncated away";

  // The same holds when the gap consists of a plausible frame header
  // whose CRC does not match (a torn overwrite of a stale frame).
  std::string bad_crc = frame_c;
  bad_crc[4] = static_cast<char>(bad_crc[4] ^ 0x01);
  write_file(path, frame_a + bad_crc + frame_c);
  std::vector<WalRecord> replayed2;
  wal.reset();
  auto wal2 = IngestWal::open(path, WalOptions{}, &replayed2);
  ASSERT_NE(wal2, nullptr);
  ASSERT_EQ(replayed2.size(), 1u);
  EXPECT_EQ(replayed2[0].id, 1u);
  EXPECT_EQ(file_size(path), frame_a.size());
  wal2.reset();
  std::filesystem::remove_all(dir);
}

TEST(Wal, FailedBatchAppendIsCutBackWhole) {
  // append_batch is all or nothing. A forked child, ignoring SIGXFSZ so an
  // oversized write fails with EFBIG instead of killing it, sets
  // RLIMIT_FSIZE so the batch's first frame fits and its second is
  // written only in part: the call fails and the file is cut back to its
  // length before the call — the complete first frame too, since the
  // batch is not acknowledged. With the limit raised again the next
  // append succeeds, and replay sees exactly the acknowledged records.
  constexpr int kChildOk = 2;
  const std::string dir = fresh_temp_dir("wal_efbig");
  std::string path = dir + "/wal";
  const WalRecord before{1, "acknowledged before the limit"};
  const std::vector<WalRecord> batch = {
      {2, "first frame of the failed batch"},
      {3, "second frame of the failed batch, written only in part"}};
  const WalRecord after{4, "acknowledged after the limit is raised"};

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: each failed check exits with its own code.
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, WalOptions{}, &replayed);
    if (wal == nullptr) _exit(40);
    if (!wal->append(before)) _exit(41);
    const size_t size = file_size(path);
    std::string first_frame;
    wal_encode_frame(batch[0], &first_frame);
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit old_limit{};
    if (getrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(42);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(size + first_frame.size() + 4);
    if (setrlimit(RLIMIT_FSIZE, &low) != 0) _exit(43);
    if (wal->append_batch(batch)) _exit(44);
    if (file_size(path) != size) _exit(45);
    if (wal->appended() != 1) _exit(46);
    if (setrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(47);
    if (!wal->append(after)) _exit(48);
    _exit(kChildOk);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildOk);

  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].id, before.id);
  EXPECT_EQ(replayed[0].text, before.text);
  EXPECT_EQ(replayed[1].id, after.id);
  EXPECT_EQ(replayed[1].text, after.text);
  wal.reset();
  std::filesystem::remove_all(dir);
}

TEST(Wal, BrokenLogRefusesAppendsUntilResetSucceeds) {
  // A reset whose directory fsync fails has already renamed the fresh file
  // over the log: the handle must write to that file, and must refuse
  // every append (single and batch) until a later reset gets through. A
  // forked child lowers RLIMIT_NOFILE so the reset's new file takes the
  // last free descriptor and the directory open fails with EMFILE.
  constexpr int kChildOk = 2;
  const std::string dir = fresh_temp_dir("wal_broken_reset");
  std::string path = dir + "/wal";
  const WalRecord before{1, "appended before the failed reset"};
  const WalRecord refused{2, "refused while the log is broken"};
  const WalRecord after{3, "appended after a reset succeeded"};

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: each failed check exits with its own code.
    std::vector<WalRecord> replayed;
    auto wal = IngestWal::open(path, WalOptions{}, &replayed);
    if (wal == nullptr) _exit(40);
    if (!wal->append(before)) _exit(41);
    rlimit old_limit{};
    if (getrlimit(RLIMIT_NOFILE, &old_limit) != 0) _exit(42);
    const int free_fd = ::open("/dev/null", O_RDONLY);
    if (free_fd < 0) _exit(43);
    ::close(free_fd);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(free_fd) + 1;  // one free descriptor
    if (setrlimit(RLIMIT_NOFILE, &low) != 0) _exit(44);
    if (wal->reset()) _exit(45);
    if (setrlimit(RLIMIT_NOFILE, &old_limit) != 0) _exit(46);
    if (file_size(path) != 0) _exit(47);  // the fresh file is in place
    if (wal->append(refused)) _exit(48);
    if (wal->append_batch({refused, refused})) _exit(49);
    if (file_size(path) != 0) _exit(50);
    if (!wal->reset()) _exit(51);
    if (!wal->append(after)) _exit(52);
    if (wal->appended() != 2) _exit(53);
    _exit(kChildOk);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildOk);

  std::vector<WalRecord> replayed;
  auto wal = IngestWal::open(path, WalOptions{}, &replayed);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].id, after.id);
  EXPECT_EQ(replayed[0].text, after.text);
  wal.reset();
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------- serving + WAL wiring ----

TEST(ServingPersistence, WalReplayRebuildsIdenticalState) {
  std::string dir = fresh_temp_dir("serving_wal_replay");
  ServingOptions with_wal;
  with_wal.persist.shard_dir = dir;
  std::vector<std::string> extras = extra_posts();

  auto original = seed_serving(24, with_wal);
  ASSERT_TRUE(original->save(dir));  // the base the WAL tail replays onto
  for (const std::string& text : extras) original->add_post(text);

  // Reference: the same ingests with no persistence at all.
  Oracle reference(seed_docs());
  for (const std::string& text : extras) reference.add_post(text);
  expect_same_answers(*original, reference, 0.0);

  // "Restart": the saved base plus the WAL tail.
  original.reset();
  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), extras.size());
  EXPECT_EQ(recovered->num_docs(),
            recovered->shard(0).seed_docs() + recovered->epoch());
  expect_same_answers(*recovered, reference, 0.0);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(ServingPersistence, SaveTruncatesWalAndRestoreSkipsDuplicates) {
  std::string dir = fresh_temp_dir("serving_wal_dup");
  ServingOptions with_wal;
  with_wal.persist.shard_dir = dir;
  std::vector<std::string> extras = extra_posts();
  const std::string wal_file = dir + "/wal";

  auto serving = seed_serving(24, with_wal);
  for (const std::string& text : extras) serving->add_post(text);
  ASSERT_GT(file_size(wal_file), 0u);
  const std::string wal_before_save = read_file(wal_file);
  ASSERT_TRUE(serving->save(dir));
  // save() bakes every logged record into the snapshot and empties the log.
  EXPECT_EQ(file_size(wal_file), 0u);
  const uint64_t epoch_at_save = serving->epoch();
  serving.reset();

  // Crash window: snapshot renamed but the WAL truncation never happened.
  // Restore must skip the already-snapshotted records — no double publish.
  write_file(wal_file, wal_before_save);
  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), epoch_at_save);
  EXPECT_EQ(recovered->num_docs(),
            recovered->shard(0).seed_docs() + recovered->epoch());

  Oracle reference(seed_docs());
  for (const std::string& text : extras) reference.add_post(text);
  expect_same_answers(*recovered, reference, 1e-9);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

// A batch is acknowledged only after each of its posts is logged, and the
// ingest log records the batch in request order (docs/PROTOCOL.md §4.5). A restart from the directory therefore
// replays batched and single ingests across shards in their original
// publication order: same ids, same sequence, bit-identical answers.
TEST(ServingPersistence, BatchedIngestReplaysInPublicationOrder) {
  std::string dir = fresh_temp_dir("serving_batch_replay");
  ServingOptions options;
  options.num_shards = 2;
  options.persist.shard_dir = dir;
  std::vector<std::string> extras = extra_posts();
  std::vector<std::string> batch(extras.begin(), extras.begin() + 4);

  Oracle reference(seed_docs());
  auto original = seed_serving(24, options);
  ASSERT_NE(original, nullptr);
  ASSERT_TRUE(original->save(dir));  // the base the WAL tail replays onto
  std::vector<DocId> order = original->add_posts(batch).value();
  ASSERT_EQ(order, reference.add_posts(batch));
  for (size_t i = batch.size(); i < extras.size(); ++i) {
    order.push_back(original->add_post(extras[i]).value());
    ASSERT_EQ(order.back(), reference.add_post(extras[i]));
  }
  const uint64_t epoch = original->epoch();
  const DocId next_id = original->next_id();
  original.reset();

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->num_shards(), 2u);
  EXPECT_EQ(recovered->epoch(), epoch);
  EXPECT_EQ(recovered->next_id(), next_id);
  // The recovered publication sequence, read back as replication frames.
  ShardedServing::ShipSegment seg =
      recovered->ship_segment(0, recovered->offline_generation(), 64, 1u << 20);
  ASSERT_EQ(seg.status, ShardedServing::ShipSegment::Status::kOk);
  std::vector<WalRecord> records;
  wal_scan_frames(seg.raw.data(), seg.raw.size(), &records);
  std::vector<DocId> replayed;
  for (const WalRecord& rec : records) replayed.push_back(rec.id);
  EXPECT_EQ(replayed, order);
  expect_same_answers(*recovered, reference, 0.0);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

// A state directory holds one ingest log: (id, text) frames in
// publication order, byte for byte the replication stream ship_segment()
// builds since the last save. Single and batched ingests interleave over
// four shards, and no log of the earlier per-shard layout (ingest.order,
// shard-<s>/wal) is ever created.
TEST(ServingPersistence, IngestLogIsTheShippedPublicationSequence) {
  constexpr uint32_t kShards = 4;
  std::string dir = fresh_temp_dir("serving_one_log");
  ServingOptions options;
  options.num_shards = static_cast<int>(kShards);
  options.persist.shard_dir = dir;
  const std::string wal_file = dir + "/wal";
  std::vector<std::string> extras = extra_posts(8);
  auto serving = seed_serving(24, options);
  ASSERT_NE(serving, nullptr);
  auto shipped_from = [&](uint64_t seq) {
    ShardedServing::ShipSegment seg =
        serving->ship_segment(seq, 0, UINT32_MAX, UINT32_MAX);
    EXPECT_EQ(seg.status, ShardedServing::ShipSegment::Status::kOk);
    return seg.raw;
  };

  ASSERT_TRUE(serving->add_post(extras[0]).has_value());
  ASSERT_TRUE(
      serving->add_posts({extras[1], extras[2], extras[3]}).has_value());
  ASSERT_TRUE(serving->add_post(extras[4]).has_value());
  EXPECT_EQ(read_file(wal_file), shipped_from(0));

  ASSERT_TRUE(serving->save(dir));
  EXPECT_EQ(file_size(wal_file), 0u);
  const uint64_t saved = serving->epoch();
  ASSERT_TRUE(serving->add_posts({extras[5], extras[6]}).has_value());
  ASSERT_TRUE(serving->add_post(extras[7]).has_value());
  EXPECT_EQ(read_file(wal_file), shipped_from(saved));

  EXPECT_FALSE(std::filesystem::exists(dir + "/ingest.order"));
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_FALSE(std::filesystem::exists(dir + "/shard-" + std::to_string(s) +
                                         "/wal"));
  }
  serving.reset();
  std::filesystem::remove_all(dir);
}

// The earlier layout split the ingest log into a publication journal
// (ingest.order, ids) and one WAL per shard (shard-<s>/wal, texts). A
// directory where either still holds a record is a crashed deployment
// whose acknowledged tail this layout does not read: restore refuses it
// instead of coming back without that tail. The final save of a drained
// deployment left both empty, and such a directory restores as before.
TEST(ServingPersistence, RestoreRefusesUndrainedLegacyLogs) {
  std::string dir = fresh_temp_dir("serving_legacy_logs");
  ServingOptions options;
  options.num_shards = 2;
  ASSERT_TRUE(seed_serving(24, options)->save(dir));
  const std::string journal = dir + "/ingest.order";
  const std::string shard_wal = dir + "/shard-1/wal";
  std::string entry;
  wal_encode_frame(WalRecord{1000, std::string()}, &entry);
  std::string payload;
  wal_encode_frame(WalRecord{1000, "acknowledged before the crash"},
                   &payload);

  write_file(journal, entry);
  write_file(shard_wal, "");
  EXPECT_EQ(ShardedServing::restore(dir), nullptr)
      << "a one-frame legacy journal";

  write_file(journal, "");
  write_file(shard_wal, payload);
  EXPECT_EQ(ShardedServing::restore(dir), nullptr)
      << "a one-frame legacy shard WAL";

  write_file(shard_wal, "");
  auto drained = ShardedServing::restore(dir);
  ASSERT_NE(drained, nullptr) << "both legacy files empty";
  EXPECT_EQ(drained->num_docs(), 24u);
  drained.reset();

  // create() starts a fresh deployment, so it discards legacy logs the way
  // it discards its own log's leftovers.
  write_file(journal, entry);
  options.persist.shard_dir = dir;
  ASSERT_NE(seed_serving(24, options), nullptr);
  EXPECT_FALSE(std::filesystem::exists(journal));
  std::filesystem::remove_all(dir);
}

TEST(ServingPersistence, RestoreRejectsMissingOrCorruptSnapshot) {
  const std::string empty = fresh_temp_dir("no_such_snapshot");
  EXPECT_EQ(ShardedServing::restore(empty), nullptr);
  std::filesystem::remove_all(empty);
  std::string path = fresh_temp_dir("corrupt_snapshot");
  ASSERT_TRUE(seed_serving(6)->save(path));
  write_file(shard_snapshot(path), "IBSGSNP2 but then nonsense");
  EXPECT_EQ(ShardedServing::restore(path), nullptr);
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace ibseg
