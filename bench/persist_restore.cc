// Persistence cost and warm-restart payoff: what a deployment pays for
// crash safety (snapshot save time, WAL append overhead on the ingest
// path) and what it gets back at startup (restore from a state directory
// versus a cold offline rebuild of the same corpus). Three measurements,
// all through a one-shard ShardedServing with a state directory:
//
//   1. cold build   — ShardedServing::create over the corpus (the
//                     segmentation + clustering + indexing a restart
//                     without persistence repeats every time),
//   2. save         — ShardedServing::save (shard snapshot v2 + manifest),
//   3. warm restore — ShardedServing::restore from that directory,
//                     including WAL replay of a tail of post-save ingests.
//
// Also reported: ingest latency with the WAL off / fsync=none /
// fsync=every-append, isolating the durability tax on add_post, and the
// per-post latency of add_posts batches at fsync=every-append. Every
// ingest call, single post or batch, is one append to the state
// directory's one ingest log, so fsync=every pays one fsync per call.
//
// Results print as a table and are recorded in BENCH_persist_restore.json
// (current working directory, like the other reproduce.sh outputs).
// IBSEG_BENCH_SCALE scales the corpus.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_serving.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// A fresh (emptied) state directory under $TMPDIR.
std::string tmp_dir(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  path += "/ibseg_bench_";
  path += name;
  std::filesystem::remove_all(path);
  return path;
}

/// Mean add_post latency (seconds) over `texts` for one WAL config.
double ingest_latency(const SyntheticCorpus& corpus,
                      const std::vector<std::string>& texts,
                      const ServingOptions& options) {
  auto serving = ShardedServing::create(analyze_corpus(corpus), {}, options);
  if (serving == nullptr) return 0.0;
  Stopwatch watch;
  for (const std::string& text : texts) serving->add_post(text);
  return texts.empty() ? 0.0
                       : watch.elapsed_seconds() /
                             static_cast<double>(texts.size());
}

/// Mean per-post latency (seconds) of add_posts over `texts` in batches
/// of `batch` posts.
double batch_ingest_latency(const SyntheticCorpus& corpus,
                            const std::vector<std::string>& texts,
                            const ServingOptions& options, size_t batch) {
  auto serving = ShardedServing::create(analyze_corpus(corpus), {}, options);
  if (serving == nullptr || texts.empty()) return 0.0;
  std::vector<std::vector<std::string>> batches;
  for (size_t i = 0; i < texts.size(); i += batch) {
    batches.emplace_back(texts.begin() + static_cast<long>(i),
                         texts.begin() + static_cast<long>(
                                             std::min(i + batch, texts.size())));
  }
  Stopwatch watch;
  for (std::vector<std::string>& b : batches) serving->add_posts(std::move(b));
  return watch.elapsed_seconds() / static_cast<double>(texts.size());
}

int run() {
  const size_t corpus_size =
      static_cast<size_t>(240 * bench::bench_scale());
  const size_t wal_tail = 32;  // ingests between last save and "crash"
  GeneratorOptions gen =
      bench::eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  GeneratorOptions extra_gen =
      bench::eval_profile(ForumDomain::kTechSupport, wal_tail, 17);
  SyntheticCorpus extra = generate_corpus(extra_gen);
  std::vector<std::string> tail_texts;
  for (const GeneratedPost& p : extra.posts) tail_texts.push_back(p.text);

  const std::string state_dir = tmp_dir("persist.d");
  ServingOptions persisted;
  persisted.persist.shard_dir = state_dir;

  // 1. Cold build (what every restart costs without persistence).
  Stopwatch cold_watch;
  auto serving =
      ShardedServing::create(analyze_corpus(corpus), {}, persisted);
  const double cold_build_sec = cold_watch.elapsed_seconds();
  if (serving == nullptr) {
    std::fprintf(stderr, "error: cannot create %s\n", state_dir.c_str());
    return 1;
  }

  // 2. Save.
  Stopwatch save_watch;
  if (!serving->save(state_dir)) {
    std::fprintf(stderr, "error: save failed\n");
    return 1;
  }
  const double save_sec = save_watch.elapsed_seconds();
  std::error_code ec;
  const uint64_t snapshot_bytes = std::filesystem::file_size(
      state_dir + "/shard-0/snapshot.v2", ec);

  // 3. Warm restore, with a WAL tail to replay on top of the snapshot.
  for (const std::string& text : tail_texts) serving->add_post(text);
  serving.reset();
  Stopwatch restore_watch;
  auto restored = ShardedServing::restore(state_dir);
  const double restore_sec = restore_watch.elapsed_seconds();
  if (restored == nullptr || restored->epoch() != wal_tail) {
    std::fprintf(stderr, "error: warm restore failed\n");
    return 1;
  }
  restored.reset();

  // 4. Durability tax on the ingest path.
  ServingOptions no_wal;
  ServingOptions wal_nosync;
  wal_nosync.persist.shard_dir = tmp_dir("persist.nosync.d");
  wal_nosync.persist.wal.fsync = WalFsync::kNone;
  ServingOptions wal_sync;
  wal_sync.persist.shard_dir = tmp_dir("persist.sync.d");
  wal_sync.persist.wal.fsync = WalFsync::kEveryAppend;
  const double ingest_off = ingest_latency(corpus, tail_texts, no_wal);
  const double ingest_nosync = ingest_latency(corpus, tail_texts, wal_nosync);
  const double ingest_sync = ingest_latency(corpus, tail_texts, wal_sync);
  constexpr size_t kBatch = 8;
  ServingOptions wal_batch = wal_sync;
  wal_batch.persist.shard_dir = tmp_dir("persist.batch.d");
  const double ingest_batch_sync =
      batch_ingest_latency(corpus, tail_texts, wal_batch, kBatch);
  std::filesystem::remove_all(wal_nosync.persist.shard_dir);
  std::filesystem::remove_all(wal_sync.persist.shard_dir);
  std::filesystem::remove_all(wal_batch.persist.shard_dir);

  const double speedup =
      restore_sec > 0.0 ? cold_build_sec / restore_sec : 0.0;

  TablePrinter table({"measurement", "value"});
  table.add_row({"corpus posts", std::to_string(corpus_size)});
  table.add_row({"cold build (s)", fmt(cold_build_sec, 3)});
  table.add_row({"snapshot save (s)", fmt(save_sec, 3)});
  table.add_row({"snapshot bytes",
                 std::to_string(static_cast<unsigned long long>(
                     snapshot_bytes))});
  table.add_row({"warm restore (s), " + std::to_string(wal_tail) +
                     " WAL records",
                 fmt(restore_sec, 3)});
  table.add_row({"restore speedup vs cold", fmt(speedup, 2)});
  table.add_row({"add_post, no WAL (ms)", fmt(ingest_off * 1e3, 3)});
  table.add_row({"add_post, WAL fsync=none (ms)", fmt(ingest_nosync * 1e3, 3)});
  table.add_row({"add_post, WAL fsync=every (ms)", fmt(ingest_sync * 1e3, 3)});
  table.add_row({"add_posts x" + std::to_string(kBatch) +
                     ", WAL fsync=every (ms/post)",
                 fmt(ingest_batch_sync * 1e3, 3)});
  std::printf("persist_restore: crash-safe persistence cost/payoff\n");
  table.print(std::cout);

  FILE* out = std::fopen("BENCH_persist_restore.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"persist_restore\",\n");
    std::fprintf(out, "  \"corpus_posts\": %zu,\n", corpus_size);
    std::fprintf(out, "  \"wal_tail_records\": %zu,\n", wal_tail);
    std::fprintf(out, "  \"cold_build_sec\": %.6f,\n", cold_build_sec);
    std::fprintf(out, "  \"snapshot_save_sec\": %.6f,\n", save_sec);
    std::fprintf(out, "  \"snapshot_bytes\": %llu,\n",
                 static_cast<unsigned long long>(snapshot_bytes));
    std::fprintf(out, "  \"warm_restore_sec\": %.6f,\n", restore_sec);
    std::fprintf(out, "  \"restore_speedup_vs_cold\": %.3f,\n", speedup);
    std::fprintf(out, "  \"ingest_ms_no_wal\": %.6f,\n", ingest_off * 1e3);
    std::fprintf(out, "  \"ingest_ms_wal_nosync\": %.6f,\n",
                 ingest_nosync * 1e3);
    std::fprintf(out, "  \"ingest_ms_wal_fsync\": %.6f,\n", ingest_sync * 1e3);
    std::fprintf(out, "  \"ingest_ms_batch_wal_fsync\": %.6f,\n",
                 ingest_batch_sync * 1e3);
    std::fprintf(out, "  \"ingest_batch_posts\": %zu\n", kBatch);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_persist_restore.json\n");
  }
  std::filesystem::remove_all(state_dir);
  return 0;
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
