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
// One pass of 32 ingests is too noisy to tell those rows apart, so the
// four rows run as kIngestRounds rounds (each pass into a fresh
// deployment), rotating their order every round so drift over the run
// spreads evenly; each row reports its median with q1/q3.
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

#include "bench/harness.h"
#include "core/sharded_serving.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

/// A fresh (emptied) state directory under $TMPDIR.
std::string tmp_dir(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
  path += "/ibseg_bench_";
  path += name;
  std::filesystem::remove_all(path);
  return path;
}

/// Rounds of the ingest rows (each row runs one pass per round).
constexpr size_t kIngestRounds = 9;

/// One ingest row of the durability-tax table.
struct IngestRow {
  std::string label;  ///< table label
  std::string key;    ///< JSON key; _q1/_q3 keys sit beside it
  const char* dir = nullptr;  ///< tmp_dir name of its log; nullptr = no WAL
  WalFsync fsync = WalFsync::kNone;
  size_t batch = 1;   ///< posts per call: 1 = add_post, else add_posts
};

/// Mean per-post latency (ms) of one pass over `texts` into a fresh
/// deployment over `docs`, in calls of `row.batch` posts.
double ingest_pass(const std::vector<Document>& docs,
                   const std::vector<std::string>& texts,
                   const IngestRow& row) {
  ServingOptions options;
  if (row.dir != nullptr) {
    options.persist.shard_dir = tmp_dir(row.dir);
    options.persist.wal.fsync = row.fsync;
  }
  auto serving = ShardedServing::create(docs, {}, options);
  if (serving == nullptr || texts.empty()) return 0.0;
  std::vector<std::vector<std::string>> batches;
  for (size_t i = 0; i < texts.size(); i += row.batch) {
    batches.emplace_back(
        texts.begin() + static_cast<long>(i),
        texts.begin() + static_cast<long>(std::min(i + row.batch,
                                                   texts.size())));
  }
  Stopwatch watch;
  for (std::vector<std::string>& b : batches) {
    if (row.batch == 1) {
      serving->add_post(std::move(b.front()));
    } else {
      serving->add_posts(std::move(b));
    }
  }
  return watch.elapsed_seconds() * 1e3 / static_cast<double>(texts.size());
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

  // 4. Durability tax on the ingest path: kIngestRounds rounds of the
  // four rows, round r starting at row r mod 4.
  constexpr size_t kBatch = 8;
  const std::vector<IngestRow> rows = {
      {"add_post, no WAL", "ingest_ms_no_wal", nullptr},
      {"add_post, WAL fsync=none", "ingest_ms_wal_nosync", "persist.nosync.d"},
      {"add_post, WAL fsync=every", "ingest_ms_wal_fsync", "persist.sync.d",
       WalFsync::kEveryAppend},
      {"add_posts x" + std::to_string(kBatch) + ", WAL fsync=every",
       "ingest_ms_batch_wal_fsync", "persist.batch.d", WalFsync::kEveryAppend,
       kBatch},
  };
  const std::vector<Document> docs = analyze_corpus(corpus);
  const std::vector<std::vector<double>> ms_per_post =
      bench::rotating_rounds(rows.size(), kIngestRounds, [&](size_t r) {
        return ingest_pass(docs, tail_texts, rows[r]);
      });
  for (const IngestRow& row : rows) {
    if (row.dir != nullptr) std::filesystem::remove_all(tmp_dir(row.dir));
  }

  const double speedup =
      restore_sec > 0.0 ? cold_build_sec / restore_sec : 0.0;

  TablePrinter table({"measurement", "value"});
  table.add_row({"corpus posts", std::to_string(corpus_size)});
  table.add_row({"cold build (s)", str_format("%.3f", cold_build_sec)});
  table.add_row({"snapshot save (s)", str_format("%.3f", save_sec)});
  table.add_row({"snapshot bytes",
                 std::to_string(static_cast<unsigned long long>(
                     snapshot_bytes))});
  table.add_row({"warm restore (s), " + std::to_string(wal_tail) +
                     " WAL records",
                 str_format("%.3f", restore_sec)});
  table.add_row({"restore speedup vs cold", str_format("%.2f", speedup)});
  for (size_t r = 0; r < rows.size(); ++r) {
    table.add_row({rows[r].label + " (ms/post, median [q1, q3] of " +
                       std::to_string(kIngestRounds) + ")",
                   bench::spread_text(bench::spread_of(ms_per_post[r]), 3)});
  }
  std::printf("persist_restore: crash-safe persistence cost/payoff\n");
  table.print(std::cout);

  bench::BenchJson json("persist_restore");
  json.put("corpus_posts", corpus_size);
  json.put("wal_tail_records", wal_tail);
  json.put("cold_build_sec", cold_build_sec);
  json.put("snapshot_save_sec", save_sec);
  json.put("snapshot_bytes", snapshot_bytes);
  json.put("warm_restore_sec", restore_sec);
  json.put("restore_speedup_vs_cold", speedup);
  // Each ingest key is its row's median over the rounds.
  for (size_t r = 0; r < rows.size(); ++r) {
    json.put(rows[r].key, bench::spread_of(ms_per_post[r]));
  }
  json.put("ingest_rounds", kIngestRounds);
  json.put("ingest_batch_posts", kBatch);
  json.write();
  std::filesystem::remove_all(state_dir);
  return 0;
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
