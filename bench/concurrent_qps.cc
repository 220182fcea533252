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

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_serving.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/sync.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

struct QpsRow {
  size_t reader_threads = 0;
  size_t ingest_threads = 0;
  double qps = 0.0;
  double ingests_per_sec = 0.0;
  uint64_t queries = 0;
  uint64_t ingests = 0;
  size_t final_docs = 0;  // corpus size at window end (growth differs per
                          // config: sustained read pressure starves writers
                          // on the reader-preferring shared_mutex)
};

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

int window_ms() {
  const char* env = std::getenv("IBSEG_QPS_WINDOW_MS");
  if (env == nullptr) return 1500;
  int v = std::atoi(env);
  return v > 0 ? v : 1500;
}

QpsRow run_config(const SyntheticCorpus& corpus, size_t reader_threads,
                  size_t ingest_threads,
                  const std::vector<std::string>& ingest_texts,
                  const std::vector<Document>& externals) {
  // Each configuration serves a fresh deployment over the same corpus.
  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& serving = *built;
  const size_t num_docs = serving.num_docs();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> ingests{0};
  CyclicBarrier barrier(reader_threads + ingest_threads + 1);

  ScopedThreads threads;
  for (size_t w = 0; w < ingest_threads; ++w) {
    threads.spawn([&, w] {
      barrier.arrive_and_wait();
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Cycle through the ingest pool; ids stay fresh automatically.
        serving.add_post(ingest_texts[(w + i++) % ingest_texts.size()]);
        ingests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t t = 0; t < reader_threads; ++t) {
    threads.spawn([&, t] {
      barrier.arrive_and_wait();
      Rng rng(10 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.next_bool(0.25)) {
          serving.find_related_external(
              externals[rng.next_below(externals.size())], 5);
        } else {
          serving.find_related(
              static_cast<DocId>(rng.next_below(num_docs)), 5);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  barrier.arrive_and_wait();  // release the whole fleet at once
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms()));
  stop.store(true, std::memory_order_relaxed);
  threads.join_all();
  double elapsed = watch.elapsed_seconds();

  QpsRow row;
  row.reader_threads = reader_threads;
  row.ingest_threads = ingest_threads;
  row.queries = queries.load();
  row.ingests = ingests.load();
  row.qps = static_cast<double>(row.queries) / elapsed;
  row.ingests_per_sec = static_cast<double>(row.ingests) / elapsed;
  row.final_docs = serving.num_docs();
  return row;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size =
      static_cast<size_t>(240 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  GeneratorOptions ingest_gen =
      eval_profile(ForumDomain::kTechSupport, 64, /*seed=*/555);
  SyntheticCorpus ingest_corpus = generate_corpus(ingest_gen);
  std::vector<std::string> ingest_texts;
  for (const auto& post : ingest_corpus.posts) {
    ingest_texts.push_back(post.text);
  }
  std::vector<Document> externals;
  for (size_t i = 0; i < 16; ++i) {
    externals.push_back(Document::analyze(
        static_cast<DocId>((1u << 30) + i),
        ingest_corpus.posts[i % ingest_corpus.posts.size()].text));
  }

  // Ingest-heavy serving mix: two continuous writers against 1/4/8 reader
  // threads (the paper's forums see a constant influx of new posts).
  const size_t kIngestThreads = 2;
  std::vector<QpsRow> rows;
  for (size_t reader_threads : {1u, 4u, 8u}) {
    rows.push_back(run_config(corpus, reader_threads, kIngestThreads,
                              ingest_texts, externals));
  }

  TablePrinter table({"reader threads", "ingest threads", "queries/sec",
                      "ingests/sec", "final docs", "speedup vs 1"});
  for (const QpsRow& row : rows) {
    double speedup = rows[0].qps > 0.0 ? row.qps / rows[0].qps : 0.0;
    table.add_row({std::to_string(row.reader_threads),
                   std::to_string(row.ingest_threads), fmt(row.qps, 1),
                   fmt(row.ingests_per_sec, 1),
                   std::to_string(row.final_docs), fmt(speedup, 2)});
  }
  std::printf("concurrent_qps: serving throughput under continuous ingest\n");
  table.print(std::cout);

  FILE* out = std::fopen("BENCH_concurrent_qps.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"concurrent_qps\",\n");
    std::fprintf(out, "  \"corpus_posts\": %zu,\n", corpus_size);
    std::fprintf(out, "  \"window_ms\": %d,\n", window_ms());
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"configs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const QpsRow& row = rows[i];
      std::fprintf(out,
                   "    {\"reader_threads\": %zu, \"ingest_threads\": %zu, "
                   "\"qps\": %.1f, \"ingests_per_sec\": %.1f, "
                   "\"queries\": %llu, \"ingests\": %llu, "
                   "\"final_docs\": %zu}%s\n",
                   row.reader_threads, row.ingest_threads, row.qps,
                   row.ingests_per_sec,
                   static_cast<unsigned long long>(row.queries),
                   static_cast<unsigned long long>(row.ingests),
                   row.final_docs, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_concurrent_qps.json\n");
  }
  return 0;
}
