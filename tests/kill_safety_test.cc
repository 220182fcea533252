// Crash-injection suite (ctest label "killsafety"): a child process is
// forked, ingests posts through the WAL-backed serving layer, and is
// killed with _exit(2) mid-stream at a randomized point K. The parent
// then performs the warm restart (state directory: snapshot v2 + ingest
// log replay) and asserts recovery lands on the EXACT pre-crash
// published state: epoch == K and find_related answers bit-identical to a
// never-crashed reference that ingested the same first K posts.
//
// _exit skips every destructor and flush — the strongest process-death
// model short of SIGKILL, and deterministic. The log writes each frame
// with a single write(2) before publication, so a post whose add_post
// returned must survive; a post mid-append may only ever be torn at the
// tail, which replay truncates.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "oracle.h"
#include "storage/snapshot_v2.h"
#include "storage/wal_codec.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

constexpr int kChildExitCode = 2;

std::vector<Document> seed_docs() {
  GeneratorOptions gen;
  gen.num_posts = 18;
  gen.posts_per_scenario = 3;
  gen.seed = 4242;
  return analyze_corpus(generate_corpus(gen));
}

std::vector<std::string> ingest_stream() {
  GeneratorOptions gen;
  gen.num_posts = 10;
  gen.posts_per_scenario = 2;
  gen.seed = 777;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::vector<std::string> texts;
  for (const GeneratedPost& p : corpus.posts) texts.push_back(p.text);
  return texts;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

bool spew(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
  os.flush();
  return static_cast<bool>(os);
}

/// Bit-identical comparison: both sides ran the same ingest code path, so
/// even the floating-point scores must match exactly — any drift means
/// recovery rebuilt different state. `Reference` is another facade or the
/// Oracle.
template <typename Reference>
void expect_identical_answers(const ShardedServing& a, const Reference& b) {
  ASSERT_EQ(a.num_docs(), b.num_docs());
  ASSERT_EQ(a.epoch(), b.epoch());
  for (const Document& d : a.shard(0).quiescent().docs()) {
    auto ra = a.find_related(d.id(), 5);
    auto rb = b.find_related(d.id(), 5);
    ASSERT_EQ(ra.results.size(), rb.results.size()) << "query " << d.id();
    for (size_t i = 0; i < ra.results.size(); ++i) {
      ASSERT_EQ(ra.results[i].doc, rb.results[i].doc)
          << "query " << d.id() << " rank " << i;
      ASSERT_EQ(ra.results[i].score, rb.results[i].score)
          << "query " << d.id() << " rank " << i;
    }
  }
}

/// Writes the base state directory every trial starts from: a one-shard
/// deployment over the seed corpus, saved through the normal save() path.
void write_base_dir(const std::string& dir) {
  ServingOptions options;
  options.persist.shard_dir = dir;
  auto serving = ShardedServing::create(seed_docs(), {}, options);
  ASSERT_NE(serving, nullptr);
  ASSERT_TRUE(serving->save(dir));
}

/// One crash trial: child restores the directory, ingests `crash_after`
/// posts from the deterministic stream, then dies with _exit. Parent
/// recovers and compares against a never-crashed reference at the same
/// epoch. `torn_tail_bytes` is appended to the log between crash and
/// recovery to additionally exercise torn-tail truncation.
void run_crash_trial(size_t crash_after, const std::string& torn_tail_bytes) {
  const std::vector<std::string> stream = ingest_stream();
  ASSERT_LE(crash_after, stream.size());
  std::string dir = fresh_temp_dir("kill_state");
  std::string wal_file = dir + "/wal";
  write_base_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: ingest, then die without any cleanup. No gtest
    // assertions here — a child failure must surface as a wrong exit
    // code, never as a confusingly duplicated test result.
    auto serving = ShardedServing::restore(dir);
    if (serving == nullptr) _exit(42);
    for (size_t i = 0; i < crash_after; ++i) {
      serving->add_post(stream[i]);
    }
    _exit(kChildExitCode);  // mid-stream: destructors and flushes skipped
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  if (!torn_tail_bytes.empty()) {
    std::ofstream os(wal_file, std::ios::binary | std::ios::app);
    os << torn_tail_bytes;
  }

  // ---- parent: warm restart from what the dead child left on disk.
  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), crash_after)
      << "recovery must land on the exact pre-crash epoch";
  EXPECT_EQ(recovered->num_docs(),
            recovered->shard(0).seed_docs() + recovered->epoch());

  // Never-crashed reference: same seed corpus, same first K ingests.
  Oracle reference(seed_docs());
  for (size_t i = 0; i < crash_after; ++i) reference.add_post(stream[i]);
  expect_identical_answers(*recovered, reference);

  // Recovery is stable: restoring again from the same files (the log now
  // holds the same K records) reproduces the same state.
  recovered.reset();
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  expect_identical_answers(*again, reference);
  again.reset();
  std::filesystem::remove_all(dir);
}

TEST(KillSafety, CrashAtRandomizedPoints) {
  // Randomized but reproducible crash points across the stream, always
  // including the boundaries (crash before any ingest / after all).
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<size_t> point(1, ingest_stream().size() - 1);
  std::vector<size_t> crash_points = {0, ingest_stream().size()};
  for (int i = 0; i < 2; ++i) crash_points.push_back(point(rng));
  for (size_t k : crash_points) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " ingests");
    run_crash_trial(k, "");
  }
}

TEST(KillSafety, TornWalTailIsTruncatedNeverReplayed) {
  // Garbage after the last complete record — as if the process died
  // mid-append. Recovery must drop the tail and still land on epoch K.
  SCOPED_TRACE("garbage tail");
  run_crash_trial(3, "torn-frame-garbage-bytes");
  // A tail that *looks* like a frame header but lies about its length.
  SCOPED_TRACE("fake header tail");
  run_crash_trial(2, std::string("\xff\x00\x00\x00\x01\x02\x03\x04", 8));
}

// A log append that fails (here: EFBIG, the file-size limit cutting the
// frame short) must leave no trace. The child lowers RLIMIT_FSIZE to just
// past the log's size, so the next post's frame is written only in part:
// add_post must fail without publishing, and the log must be cut back to
// its length before the call — a partial frame left behind would make
// replay drop every later record. With the limit raised again, the next
// post is acknowledged. The parent restores: the failed post is absent,
// the later one present.
TEST(KillSafety, FailedWalAppendIsNeitherPublishedNorRestored) {
  const std::vector<std::string> stream = ingest_stream();
  std::string dir = fresh_temp_dir("kill_efbig");
  const std::string wal_file = dir + "/wal";
  write_base_dir(dir);
  DocId first = 0;
  {
    auto probe = ShardedServing::restore(dir);
    ASSERT_NE(probe, nullptr);
    first = probe->next_id();
  }

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: each failed check exits with its own code.
    auto serving = ShardedServing::restore(dir);
    if (serving == nullptr) _exit(40);
    if (serving->add_post(stream[0]) != first) _exit(41);
    if (serving->add_post(stream[1]) != first + 1) _exit(42);
    const uintmax_t wal_size = std::filesystem::file_size(wal_file);
    const uint64_t epoch = serving->epoch();
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of death
    rlimit old_limit{};
    if (getrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(43);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(wal_size + 16);
    if (setrlimit(RLIMIT_FSIZE, &low) != 0) _exit(44);
    if (serving->add_post(stream[2]).has_value()) _exit(45);
    if (serving->epoch() != epoch) _exit(46);
    for (const Document& d : serving->shard(0).quiescent().docs()) {
      if (d.id() == first + 2) _exit(47);
    }
    if (std::filesystem::file_size(wal_file) != wal_size) _exit(48);
    if (setrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(50);
    if (serving->add_post(stream[3]) != first + 3) _exit(51);
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 3u);
  Oracle reference(seed_docs());
  reference.publish(first, stream[0]);
  reference.publish(first + 1, stream[1]);
  reference.publish(first + 3, stream[3]);
  expect_identical_answers(*recovered, reference);
  for (const Document& d : recovered->shard(0).quiescent().docs()) {
    EXPECT_NE(d.id(), first + 2) << "the failed post was restored";
  }
  recovered.reset();
  std::filesystem::remove_all(dir);
}

// A save whose log reset fails after the rename (here: the directory
// fsync hits EMFILE) must not let later ingests be acknowledged into the
// replaced log file, which no restore reads. The child lowers
// RLIMIT_NOFILE so exactly one descriptor is free during save(); every
// ingest after it must be refused or survive restore. A copy of the
// state directory taken before any later save stands for a crash at that
// point. With the limit raised, the next save resets the log and
// ingests are acknowledged again. The child records the ids it saw
// acknowledged; the parent restores both directories and checks them.
TEST(KillSafety, FailedLogResetRefusesIngestsUntilASaveSucceeds) {
  const std::vector<std::string> stream = ingest_stream();
  const std::string dir = fresh_temp_dir("kill_reset_emfile");
  const std::string crashed = fresh_temp_dir("kill_reset_emfile_crash");
  const std::string acked_file = dir + "/acked_ids";
  write_base_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: each failed check exits with its own code.
    auto serving = ShardedServing::restore(dir);
    if (serving == nullptr) _exit(40);
    std::vector<DocId> acked;
    std::optional<DocId> id = serving->add_post(stream[0]);
    if (!id.has_value()) _exit(41);
    acked.push_back(*id);
    rlimit old_limit{};
    if (getrlimit(RLIMIT_NOFILE, &old_limit) != 0) _exit(42);
    const int free_fd = ::open("/dev/null", O_RDONLY);
    if (free_fd < 0) _exit(43);
    ::close(free_fd);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(free_fd) + 1;  // one free descriptor
    if (setrlimit(RLIMIT_NOFILE, &low) != 0) _exit(44);
    if (serving->save(dir)) _exit(45);  // the log reset failed
    for (size_t i = 1; i <= 2; ++i) {
      id = serving->add_post(stream[i]);
      if (id.has_value()) acked.push_back(*id);
    }
    if (setrlimit(RLIMIT_NOFILE, &old_limit) != 0) _exit(46);
    // Still refused: only a successful save mends the log.
    id = serving->add_post(stream[3]);
    if (id.has_value()) acked.push_back(*id);
    std::filesystem::remove_all(crashed);
    std::error_code ec;
    std::filesystem::copy(dir, crashed,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) _exit(47);
    const size_t acked_before_save = acked.size();
    if (!serving->save(dir)) _exit(48);
    id = serving->add_post(stream[4]);
    if (!id.has_value()) _exit(49);
    acked.push_back(*id);
    std::ofstream os(acked_file, std::ios::trunc);
    os << acked_before_save << "\n";
    for (DocId a : acked) os << a << "\n";
    os.close();
    if (!os) _exit(50);
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  size_t acked_before_save = 0;
  std::vector<DocId> acked;
  {
    std::ifstream is(acked_file);
    is >> acked_before_save;
    DocId a = 0;
    while (is >> a) acked.push_back(a);
  }
  ASSERT_LE(acked_before_save, acked.size());
  ASSERT_GE(acked_before_save, 1u);
  const size_t seed = seed_docs().size();
  auto expect_restored = [&](const std::string& from, size_t count) {
    auto recovered = ShardedServing::restore(from);
    ASSERT_NE(recovered, nullptr) << from;
    EXPECT_EQ(recovered->num_docs(), seed + count) << from;
    std::unordered_set<DocId> present;
    for (const Document& d : recovered->shard(0).quiescent().docs()) {
      present.insert(d.id());
    }
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(present.count(acked[i]) > 0)
          << "acknowledged post " << acked[i] << " lost across restore of "
          << from;
    }
  };
  expect_restored(crashed, acked_before_save);
  expect_restored(dir, acked.size());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(crashed);
}

TEST(KillSafety, CrashBetweenSnapshotAndWalTruncation) {
  // The save()-time crash window: snapshot and manifest committed, log not
  // yet reset. Replay must skip every record already baked into the
  // snapshot.
  const std::vector<std::string> stream = ingest_stream();
  std::string dir = fresh_temp_dir("kill_state_window");
  std::string wal_file = dir + "/wal";
  write_base_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto serving = ShardedServing::restore(dir);
    if (serving == nullptr) _exit(42);
    for (size_t i = 0; i < 4; ++i) serving->add_post(stream[i]);
    // Simulate the torn save: capture the log, save (which truncates it),
    // then put the stale log back — the on-disk state of a process that
    // died after the manifest commit but before the truncation hit the
    // disk.
    std::string stale_wal = slurp(wal_file);
    if (!serving->save(dir)) _exit(43);
    if (!spew(wal_file, stale_wal)) _exit(44);
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  // The four posts are in the snapshot; the stale log's copies of them
  // must be skipped, not published a second time.
  EXPECT_EQ(recovered->epoch(), 4u);
  EXPECT_EQ(recovered->num_docs(),
            recovered->shard(0).seed_docs() + recovered->epoch());

  Oracle reference(seed_docs());
  for (size_t i = 0; i < 4; ++i) reference.add_post(stream[i]);
  expect_identical_answers(*recovered, reference);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

// ==================================================== sharded deployments ====
//
// Same crash model, four hash-partitioned shards: the child restores a
// sharded directory (per-shard snapshot-v2 + one ingest log + manifest),
// ingests mid-stream, dies with _exit.
// Recovery must land on the exact pre-crash combined epoch with answers
// bit-identical to BOTH a never-crashed 4-shard deployment and the
// unpartitioned pipeline at the same logical epoch — the sharded layer's
// durability story composes with its bit-identity story.

constexpr uint32_t kShards = 4;

/// All mutable files of a 4-shard persist directory, for capture/rollback.
std::vector<std::string> shard_dir_files(const std::string& dir) {
  std::vector<std::string> files = {dir + "/MANIFEST", dir + "/wal"};
  for (uint32_t s = 0; s < kShards; ++s) {
    files.push_back(dir + "/shard-" + std::to_string(s) + "/snapshot.v2");
  }
  return files;
}

/// Sharded vs unsharded bit-identity at quiescence (both sides joined).
void expect_matches_pipeline(const ShardedServing& sharded,
                             const Oracle& reference) {
  ASSERT_EQ(sharded.num_docs(), reference.num_docs());
  ASSERT_EQ(sharded.epoch(), reference.epoch());
  for (const Document& d : reference.docs()) {
    auto got = sharded.find_related(d.id(), 5);
    auto want = reference.find_related(d.id(), 5);
    ASSERT_EQ(got.results.size(), want.results.size()) << "query " << d.id();
    for (size_t i = 0; i < want.results.size(); ++i) {
      ASSERT_EQ(got.results[i].doc, want.results[i].doc)
          << "query " << d.id() << " rank " << i;
      ASSERT_EQ(got.results[i].score, want.results[i].score)
          << "query " << d.id() << " rank " << i;
    }
  }
}

/// Parent-side setup: a persisted 4-shard deployment over the seed corpus,
/// saved (committed) to `dir`.
void write_base_shard_dir(const std::string& dir) {
  ServingOptions options;
  options.num_shards = static_cast<int>(kShards);
  options.persist.shard_dir = dir;
  auto sharded = ShardedServing::create(seed_docs(), {}, options);
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(sharded->save(dir));
}

/// One sharded crash trial: child restores `dir`, ingests `crash_after`
/// posts (scattered across shards by the id hash), dies with _exit.
void run_sharded_crash_trial(size_t crash_after) {
  const std::vector<std::string> stream = ingest_stream();
  ASSERT_LE(crash_after, stream.size());
  std::string dir = fresh_temp_dir("kill_shards");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < crash_after; ++i) sharded->add_post(stream[i]);
    _exit(kChildExitCode);  // log tail unflushed by destructors
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), crash_after)
      << "recovery must land on the exact pre-crash combined epoch";

  // Never-crashed 4-shard reference over the same history.
  ServingOptions plain;
  plain.num_shards = static_cast<int>(kShards);
  auto reference = ShardedServing::create(seed_docs(), {}, plain);
  ASSERT_NE(reference, nullptr);
  for (size_t i = 0; i < crash_after; ++i) reference->add_post(stream[i]);
  ASSERT_EQ(recovered->epoch(), reference->epoch());
  ASSERT_EQ(recovered->next_id(), reference->next_id());

  // Unsharded reference at the same logical epoch — the bit-identity
  // anchor for both of them.
  Oracle unsharded(seed_docs());
  for (size_t i = 0; i < crash_after; ++i) unsharded.add_post(stream[i]);
  expect_matches_pipeline(*recovered, unsharded);
  expect_matches_pipeline(*reference, unsharded);
}

TEST(ShardedKillSafety, FourShardCrashMidIngestRecoversBitIdentical) {
  for (size_t k : {size_t{0}, size_t{3}, ingest_stream().size()}) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " ingests");
    run_sharded_crash_trial(k);
  }
}

// add_posts' all-or-nothing rule. A batch spread over two shards is
// logged in one append to the one ingest log. A forked child sets
// RLIMIT_FSIZE inside the batch's last frame, so every frame before it is
// written whole: the call must fail, publish none of the batch on any
// shard, and cut the log back to its length before the call — the
// complete frames too, since the batch is not acknowledged. A batch added
// after the limit is raised is acknowledged; the parent restores it, and
// nothing of the failed batch.
TEST(ShardedKillSafety, FailedBatchAppendPublishesNoneOfTheBatch) {
  const std::vector<std::string> stream = ingest_stream();
  std::string dir = fresh_temp_dir("kill_efbig_batch");
  write_base_shard_dir(dir);
  const std::string wal_file = dir + "/wal";
  DocId first = 0;
  {
    auto probe = ShardedServing::restore(dir);
    ASSERT_NE(probe, nullptr);
    first = probe->next_id();
  }
  // The failed batch: the shortest prefix of the stream whose ids reach a
  // second shard.
  auto owner = [&](size_t i) {
    return ShardedServing::shard_of(first + static_cast<DocId>(i), kShards);
  };
  size_t n = 1;
  while (n < stream.size() && owner(n) == owner(0)) ++n;
  ++n;
  ASSERT_LE(n + 2, stream.size()) << "stream too short for two batches";
  const std::vector<std::string> failed(stream.begin(), stream.begin() + n);

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // ---- child: each failed check exits with its own code.
    auto serving = ShardedServing::restore(dir);
    if (serving == nullptr) _exit(40);
    if (serving->next_id() != first) _exit(41);
    const uintmax_t size = std::filesystem::file_size(wal_file);
    // The size a successful call would leave, less half the last frame.
    uintmax_t limit = size;
    std::string frame;
    for (size_t i = 0; i < n; ++i) {
      frame.clear();
      wal_encode_frame(WalRecord{first + static_cast<DocId>(i), failed[i]},
                       &frame);
      limit += frame.size();
    }
    limit -= frame.size() / 2;
    const uint64_t epoch = serving->epoch();
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of death
    rlimit old_limit{};
    if (getrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(43);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(limit);
    if (setrlimit(RLIMIT_FSIZE, &low) != 0) _exit(44);
    if (serving->add_posts(failed).has_value()) _exit(45);
    if (serving->epoch() != epoch) _exit(46);
    for (uint32_t s = 0; s < kShards; ++s) {
      for (const Document& d : serving->shard(s).quiescent().docs()) {
        if (d.id() >= first && d.id() < first + n) _exit(47);
      }
    }
    if (std::filesystem::file_size(wal_file) != size) _exit(48);
    if (setrlimit(RLIMIT_FSIZE, &old_limit) != 0) _exit(49);
    const std::vector<DocId> later = {first + static_cast<DocId>(n),
                                      first + static_cast<DocId>(n + 1)};
    if (serving->add_posts({stream[n], stream[n + 1]}) != later) _exit(50);
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 2u);
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const Document& d : recovered->shard(s).quiescent().docs()) {
      EXPECT_FALSE(d.id() >= first && d.id() < first + n)
          << "post " << d.id() << " of the failed batch was restored";
    }
  }
  Oracle reference(seed_docs());
  reference.publish(first + static_cast<DocId>(n), stream[n]);
  reference.publish(first + static_cast<DocId>(n + 1), stream[n + 1]);
  expect_matches_pipeline(*recovered, reference);
  recovered.reset();
  std::filesystem::remove_all(dir);
}

TEST(ShardedKillSafety, FreshlyCreatedDeploymentSurvivesCrashMidIngest) {
  // Unlike the other trials, the CHILD builds the persisted deployment:
  // create() with a shard_dir opens a brand-new ingest log, whose
  // directory entry must be made durable at creation (the create-dirent
  // fsync path) — otherwise a crash could lose the *name* of a log whose
  // appends were faithfully synced. The child creates, commits the base
  // save, ingests mid-stream and dies with _exit; the parent restores and
  // must land on the exact pre-crash epoch.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 4;
  std::string dir = fresh_temp_dir("kill_fresh_create");

  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ServingOptions options;
    options.num_shards = static_cast<int>(kShards);
    options.persist.shard_dir = dir;
    auto sharded = ShardedServing::create(seed_docs(), {}, options);
    if (sharded == nullptr) _exit(42);
    if (!sharded->save(dir)) _exit(43);  // commit the manifest
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    _exit(kChildExitCode);  // log tail left to recovery
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), kIngests);

  Oracle unsharded(seed_docs());
  for (size_t i = 0; i < kIngests; ++i) unsharded.add_post(stream[i]);
  expect_matches_pipeline(*recovered, unsharded);
}

TEST(ShardedKillSafety, CrashBetweenShardSnapshotRenames) {
  // The multi-shard save() crash window: some shard snapshots already
  // renamed into place, the manifest commit (and the log reset behind it)
  // never reached the disk. The child reproduces that exact on-disk state
  // by capturing the directory before a save, saving, then rolling back
  // the manifest, the log, and HALF the shard snapshots — shards 2 and 3
  // keep their new (ahead-of-manifest) files. Recovery must reach the
  // full pre-crash history via log replay with published-set dedup,
  // bit-identical to the unsharded reference.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 6;
  std::string dir = fresh_temp_dir("kill_renames");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    std::vector<std::string> files = shard_dir_files(dir);
    std::vector<std::string> before;
    for (const std::string& f : files) before.push_back(slurp(f));
    if (!sharded->save(dir)) _exit(43);
    // Roll back everything EXCEPT shard-2/shard-3 snapshots (index 2 + s
    // in shard_dir_files order: 0 MANIFEST, 1 log, then one snapshot per
    // shard).
    for (size_t i = 0; i < files.size(); ++i) {
      bool keep_new = (i == 2 + 2) || (i == 2 + 3);
      if (!keep_new && !spew(files[i], before[i])) _exit(44);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr)
      << "snapshot-ahead-of-manifest is the legal crash window; restore "
         "must recover, not reject";
  EXPECT_EQ(recovered->epoch(), kIngests);

  Oracle unsharded(seed_docs());
  for (size_t i = 0; i < kIngests; ++i) unsharded.add_post(stream[i]);
  expect_matches_pipeline(*recovered, unsharded);

  // Recovery is stable under repetition.
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  expect_matches_pipeline(*again, unsharded);
}

// ==================================== re-clustering epoch crash windows ====
//
// A background recluster changes only memory; disk changes at the NEXT
// save, which writes generation-qualified shard snapshots
// (shard-<i>/snapshot.g<G>.v2) before committing the manifest. The crash
// windows around that save must resolve to exactly the old or exactly the
// new generation — never a torn mixture.

TEST(ShardedKillSafety, CrashBeforeReclusterManifestCommitLandsOnOldGeneration) {
  // The pre-commit window: every new-generation snapshot already renamed
  // into place, the manifest commit never reached the disk. The child
  // reproduces it by capturing the generation-0 files before the
  // post-recluster save, saving (which writes snapshot.g1.v2 files,
  // commits a generation-1 manifest, truncates the log and GCs the old
  // snapshots), then rolling every generation-0 file back — leaving the
  // snapshot.g1.v2 files as orphans. Restore must follow the manifest:
  // generation 0, full history via log replay, the orphans ignored.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kIngests = 6;
  std::string dir = fresh_temp_dir("kill_swap_precommit");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kIngests; ++i) sharded->add_post(stream[i]);
    if (sharded->recluster() != 1) _exit(45);
    std::vector<std::string> files = shard_dir_files(dir);
    std::vector<std::string> before;
    for (const std::string& f : files) before.push_back(slurp(f));
    if (!sharded->save(dir)) _exit(43);
    for (size_t i = 0; i < files.size(); ++i) {
      if (!spew(files[i], before[i])) _exit(44);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr)
      << "pre-commit crash must restore the old generation, not reject";
  EXPECT_EQ(recovered->offline_generation(), 0u);
  EXPECT_EQ(recovered->epoch(), kIngests);

  // Bit-identical to a never-crashed, never-reclustered deployment.
  Oracle unsharded(seed_docs());
  for (size_t i = 0; i < kIngests; ++i) unsharded.add_post(stream[i]);
  expect_matches_pipeline(*recovered, unsharded);

  // Life goes on at generation 0: the next save GCs the orphan
  // generation-1 snapshots and the directory keeps round-tripping.
  ASSERT_TRUE(recovered->save(dir));
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->offline_generation(), 0u);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, KillAfterReclusterSaveRestoresNewGeneration) {
  // The post-commit path: the manifest for generation 1 hit the disk,
  // then the process is killed mid-stream (log tail beyond the save,
  // destructors never run). Restore must land on generation 1 with
  // the full history — offline state from the generation-1 snapshots,
  // the post-save tail via replay.
  const std::vector<std::string> stream = ingest_stream();
  const size_t kBefore = 6;
  const size_t kAfter = 3;
  std::string dir = fresh_temp_dir("kill_swap_committed");
  write_base_shard_dir(dir);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto sharded = ShardedServing::restore(dir);
    if (sharded == nullptr) _exit(42);
    for (size_t i = 0; i < kBefore; ++i) sharded->add_post(stream[i]);
    if (sharded->recluster() != 1) _exit(45);
    if (!sharded->save(dir)) _exit(43);
    for (size_t i = 0; i < kAfter; ++i) {
      sharded->add_post(stream[kBefore + i]);
    }
    _exit(kChildExitCode);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kChildExitCode);

  auto recovered = ShardedServing::restore(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->offline_generation(), 1u);
  EXPECT_EQ(recovered->offline_publications(), kBefore);
  EXPECT_EQ(recovered->epoch(), kBefore + kAfter);

  // Never-crashed reference running the identical history.
  Oracle unsharded(seed_docs());
  for (size_t i = 0; i < kBefore; ++i) unsharded.add_post(stream[i]);
  ASSERT_EQ(unsharded.recluster(), 1u);
  for (size_t i = 0; i < kAfter; ++i) {
    unsharded.add_post(stream[kBefore + i]);
  }
  expect_matches_pipeline(*recovered, unsharded);

  // Recovery is stable under repetition.
  auto again = ShardedServing::restore(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->offline_generation(), 1u);
  expect_matches_pipeline(*again, unsharded);
}

TEST(ShardedKillSafety, StaleShardSnapshotIsRejectedNotResurrected) {
  // The torn-restore bug this PR fixes: a shard snapshot HOLDING FEWER
  // documents than its manifest entry committed cannot be the file that
  // manifest described (snapshots rename before the commit) — someone
  // swapped in an old file. Resurrecting it would silently fork history;
  // restore must reject the directory instead.
  const std::vector<std::string> stream = ingest_stream();
  std::string dir = fresh_temp_dir("kill_stale");
  write_base_shard_dir(dir);
  {
    auto sharded = ShardedServing::restore(dir);
    ASSERT_NE(sharded, nullptr);
    // Find a shard that gains a document, keep its pre-ingest snapshot.
    for (size_t i = 0; i < 6; ++i) sharded->add_post(stream[i]);
    uint32_t victim = kShards;
    for (uint32_t s = 0; s < kShards; ++s) {
      if (sharded->shard(s).epoch() > 0) victim = s;
    }
    ASSERT_LT(victim, kShards);
    std::string snap =
        dir + "/shard-" + std::to_string(victim) + "/snapshot.v2";
    std::string stale = slurp(snap);
    ASSERT_TRUE(sharded->save(dir));  // commits the larger shard counts
    ASSERT_TRUE(spew(snap, stale));   // swap the old snapshot back in
  }
  EXPECT_EQ(ShardedServing::restore(dir), nullptr);
}

}  // namespace
}  // namespace ibseg
