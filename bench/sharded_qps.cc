// Sharded scatter-gather throughput: queries/sec through
// ShardedServing::find_related at 1, 2, 4 and 8 shards while a background
// writer streams ingests — the mixed read/write regime sharding is for.
// Every configuration serves the identical corpus (sharding is
// bit-identical by construction, so the rows differ only in cost), which
// makes the table a pure overhead/scaling measurement: the 1-shard row is
// the scatter layer's fixed tax over a single shard, and the higher rows
// show how fan-out amortizes under per-shard locking. On a
// single-core container the thread rows report hardware-limited numbers
// (hardware_threads lands in the JSON for exactly that reason).
//
// Results print as a table and are recorded in BENCH_sharded_qps.json
// (current working directory); scripts/reproduce.sh checks the JSON
// schema. IBSEG_BENCH_SCALE scales the corpus; IBSEG_QPS_WINDOW_MS
// overrides the per-configuration measurement window.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/sharded_serving.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

struct ShardRow {
  int shards = 0;
  double qps = 0.0;
  uint64_t queries = 0;
  uint64_t ingests = 0;
};

ShardRow run_config(const SyntheticCorpus& corpus,
                    const std::vector<std::string>& ingest_texts, int shards,
                    int window) {
  ServingOptions options;
  options.num_shards = shards;
  std::unique_ptr<ShardedServing> serving =
      ShardedServing::create(analyze_corpus(corpus), {}, options);
  if (serving == nullptr) {
    std::fprintf(stderr, "sharded_qps: create failed at %d shards\n", shards);
    std::exit(1);
  }
  const size_t num_docs = serving->num_docs();

  // Background writer: a steady ingest trickle for the whole window, so
  // every query row is measured against concurrent publications (the
  // trickle cycles through the prepared texts; ids never repeat).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ingested{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      serving->add_post(ingest_texts[i++ % ingest_texts.size()]);
      ingested.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Rng rng(99);
  const double window_sec = window / 1000.0;
  uint64_t queries = 0;
  Stopwatch watch;
  while (watch.elapsed_seconds() < window_sec) {
    serving->find_related(static_cast<DocId>(rng.next_below(num_docs)), 5);
    ++queries;
  }
  double elapsed = watch.elapsed_seconds();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ShardRow row;
  row.shards = shards;
  row.queries = queries;
  row.qps = static_cast<double>(queries) / elapsed;
  row.ingests = ingested.load(std::memory_order_relaxed);
  return row;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size = static_cast<size_t>(240 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  GeneratorOptions extra_gen =
      eval_profile(ForumDomain::kTechSupport, 32);
  extra_gen.seed = gen.seed + 1;
  SyntheticCorpus extra = generate_corpus(extra_gen);
  std::vector<std::string> ingest_texts;
  for (const GeneratedPost& p : extra.posts) ingest_texts.push_back(p.text);

  const int window = window_ms(1200);
  std::vector<ShardRow> rows;
  for (int shards : {1, 2, 4, 8}) {
    rows.push_back(run_config(corpus, ingest_texts, shards, window));
  }

  const double base_qps = rows[0].qps;
  auto speedup = [&](const ShardRow& row) {
    return base_qps > 0.0 ? row.qps / base_qps : 0.0;
  };
  TablePrinter table(
      {"shards", "queries/sec", "ingests during window", "vs 1 shard"});
  for (const ShardRow& row : rows) {
    table.add_row({std::to_string(row.shards), str_format("%.1f", row.qps),
                   std::to_string(row.ingests),
                   str_format("%.2f", speedup(row))});
  }
  std::printf(
      "sharded_qps: scatter-gather query throughput under concurrent "
      "ingest\n");
  table.print(std::cout);

  BenchJson json("sharded_qps");
  json.put("corpus_posts", corpus_size);
  json.put("window_ms", window);
  json.array("configs", [&] {
    for (const ShardRow& row : rows) {
      json.element([&] {
        json.put("shards", row.shards);
        json.put("qps", row.qps);
        json.put("queries", row.queries);
        json.put("ingests", row.ingests);
        json.put("speedup_vs_one_shard", speedup(row));
      });
    }
  });
  json.write();
  return 0;
}
