// MaxScore pruning throughput: single-threaded queries/sec through a
// one-shard ShardedServing::find_related with the pruned per-intention
// path (the default) against the exhaustive score-then-select fallback
// (MatcherOptions::exhaustive_fallback), result cache OFF — every query
// does real scoring work, so the ratio is the pruning win, not a cache
// artifact. Both paths return bit-identical rankings (the differential
// suite proves it); the bench also reports the work counters — units
// fully scored and candidates abandoned mid-scoring — so the speedup can
// be traced to scored-work actually avoided rather than measurement
// noise. The headline number is the k=10 ratio (pruned vs exhaustive).
//
// Results print as a table and are recorded in
// BENCH_pruned_query_qps.json (current working directory);
// scripts/reproduce.sh checks the JSON schema. IBSEG_BENCH_SCALE scales
// the corpus; IBSEG_QPS_WINDOW_MS overrides the measurement window.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_serving.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

constexpr int kTopK = 10;

struct QpsRow {
  bool pruned = false;
  double qps = 0.0;
  uint64_t queries = 0;
  uint64_t units_scored = 0;
  uint64_t units_pruned = 0;
};

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

int window_ms() {
  const char* env = std::getenv("IBSEG_QPS_WINDOW_MS");
  if (env == nullptr) return 1200;
  int v = std::atoi(env);
  return v > 0 ? v : 1200;
}

QpsRow run_config(const SyntheticCorpus& corpus, bool pruned) {
  PipelineOptions build_options;
  build_options.matcher.exhaustive_fallback = !pruned;
  // Cache off: ServingOptions default capacity 0 — every query scores.
  auto serving = ShardedServing::create(analyze_corpus(corpus), build_options);
  const size_t num_docs = serving->num_docs();

  // Uniform query stream, deterministic per config (same seed), so every
  // row answers the same queries.
  Rng rng(99);
  const double window_sec = window_ms() / 1000.0;
  uint64_t queries = 0;
  Stopwatch watch;
  while (watch.elapsed_seconds() < window_sec) {
    serving->find_related(static_cast<DocId>(rng.next_below(num_docs)),
                          kTopK);
    ++queries;
  }
  double elapsed = watch.elapsed_seconds();

  QpsRow row;
  row.pruned = pruned;
  row.queries = queries;
  row.qps = static_cast<double>(queries) / elapsed;
  const QueryWorkCounters& work =
      serving->shard(0).quiescent().matcher().work_counters();
  row.units_scored = work.units_scored.load(std::memory_order_relaxed);
  row.units_pruned = work.units_pruned.load(std::memory_order_relaxed);
  return row;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  // Serving-scale corpus (20x the micro-bench base of 240): pruning is a
  // top-k-vs-corpus-size win, so per-intention candidate lists must far
  // exceed n = 2k for the measurement to say anything — at 240 posts the
  // lists are barely longer than n and the ratio only measures driver
  // overhead.
  const size_t corpus_size = static_cast<size_t>(4800 * bench_scale());
  GeneratorOptions gen = eval_profile(ForumDomain::kTechSupport, corpus_size);
  SyntheticCorpus corpus = generate_corpus(gen);

  // Both configurations build the same corpus deterministically, so they
  // serve identical state (and identical rankings — only the work
  // differs). rows[0] is the exhaustive baseline.
  std::vector<QpsRow> rows;
  for (bool pruned : {false, true}) rows.push_back(run_config(corpus, pruned));
  const double base = rows[0].qps;

  TablePrinter table({"path", "queries/sec", "units scored/query",
                      "units abandoned/query", "speedup vs exhaustive"});
  for (const QpsRow& row : rows) {
    table.add_row(
        {row.pruned ? "pruned" : "exhaustive", fmt(row.qps, 1),
         fmt(row.queries > 0
                 ? static_cast<double>(row.units_scored) / row.queries
                 : 0.0,
             1),
         fmt(row.queries > 0
                 ? static_cast<double>(row.units_pruned) / row.queries
                 : 0.0,
             1),
         fmt(base > 0.0 ? row.qps / base : 0.0, 2)});
  }
  std::printf(
      "pruned_query_qps: MaxScore top-%d pruning vs exhaustive scoring "
      "(cache off)\n",
      kTopK);
  table.print(std::cout);

  FILE* out = std::fopen("BENCH_pruned_query_qps.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"pruned_query_qps\",\n");
    std::fprintf(out, "  \"corpus_posts\": %zu,\n", corpus_size);
    std::fprintf(out, "  \"window_ms\": %d,\n", window_ms());
    std::fprintf(out, "  \"top_k\": %d,\n", kTopK);
    std::fprintf(out, "  \"configs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const QpsRow& row = rows[i];
      std::fprintf(out,
                   "    {\"pruned\": %s, "
                   "\"qps\": %.1f, \"queries\": %llu, "
                   "\"units_scored\": %llu, \"units_pruned\": %llu, "
                   "\"speedup_vs_exhaustive\": %.2f}%s\n",
                   row.pruned ? "true" : "false", row.qps,
                   static_cast<unsigned long long>(row.queries),
                   static_cast<unsigned long long>(row.units_scored),
                   static_cast<unsigned long long>(row.units_pruned),
                   base > 0.0 ? row.qps / base : 0.0,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_pruned_query_qps.json\n");
  }
  return 0;
}
