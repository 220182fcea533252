// Concurrent serving throughput: aggregate queries/sec against a
// one-shard ShardedServing at 1, 4 and 8 reader threads while ingest
// writers continuously publish new posts — the ingest-heavy serving
// scenario. Queries run under the shard's shared lock; writers prepare
// posts lock-free and take the exclusive lock only to publish, so query
// throughput should scale with reader count. Note the fairness tradeoff the rows make visible:
// std::shared_mutex is reader-preferring on glibc, so under sustained
// read pressure writers starve and the corpus barely grows, while a lone
// reader leaves gaps that let writers balloon the corpus (the final-docs
// column reports the corpus size each configuration ended at).
//
// Results print as a table and are recorded in BENCH_concurrent_qps.json
// (written to the current working directory, like the reproduce.sh
// outputs). IBSEG_BENCH_SCALE scales the corpus; IBSEG_QPS_WINDOW_MS
// overrides the per-configuration measurement window.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/strings.h"
#include "util/table_printer.h"

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size =
      static_cast<size_t>(240 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);
  const int window = window_ms(1500);
  const Fleet fleet;

  // Ingest-heavy serving mix: two continuous writers against 1/4/8 reader
  // threads (the paper's forums see a constant influx of new posts). Each
  // configuration serves a fresh deployment over the same corpus.
  struct Row {
    size_t reader_threads = 0;
    Fleet::Result result;
    size_t final_docs = 0;  // corpus size at window end (growth differs per
                            // config: sustained read pressure starves
                            // writers on the reader-preferring shared_mutex)
  };
  const size_t kIngestThreads = 2;
  std::vector<Row> rows;
  for (size_t reader_threads : {1u, 4u, 8u}) {
    auto serving = ShardedServing::create(analyze_corpus(corpus));
    Fleet::Result result =
        fleet.run(*serving, reader_threads, kIngestThreads, window);
    rows.push_back({reader_threads, result, serving->num_docs()});
  }

  TablePrinter table({"reader threads", "ingest threads", "queries/sec",
                      "ingests/sec", "final docs", "speedup vs 1"});
  const double base_qps = rows[0].result.qps();
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.reader_threads),
                   std::to_string(kIngestThreads),
                   str_format("%.1f", row.result.qps()),
                   str_format("%.1f", row.result.ingests_per_sec()),
                   std::to_string(row.final_docs),
                   str_format("%.2f", base_qps > 0.0
                                          ? row.result.qps() / base_qps
                                          : 0.0)});
  }
  std::printf("concurrent_qps: serving throughput under continuous ingest\n");
  table.print(std::cout);

  BenchJson json("concurrent_qps");
  json.put("corpus_posts", corpus_size);
  json.put("window_ms", window);
  json.array("configs", [&] {
    for (const Row& row : rows) {
      json.element([&] {
        json.put("reader_threads", row.reader_threads);
        json.put("ingest_threads", kIngestThreads);
        json.put("qps", row.result.qps());
        json.put("ingests_per_sec", row.result.ingests_per_sec());
        json.put("queries", row.result.queries);
        json.put("ingests", row.result.ingests);
        json.put("final_docs", row.final_docs);
      });
    }
  });
  json.write();
  return 0;
}
