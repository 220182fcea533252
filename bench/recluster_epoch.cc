// Operational cost of one background re-clustering epoch
// (docs/ARCHITECTURE.md §9): what a deployment pays to run recluster()
// and what happens to reads while it runs. Four measurements:
//
//   1. recluster latency — wall time of one recluster() over a seed
//      corpus plus a streamed ingest tail (capture + shadow offline
//      rebuild + catch-up + swap),
//   2. pending-pool drain — outlier/pending pool size before vs after
//      the swap (pending_distance_threshold is set to 0.0 so every
//      ingest pools, making the drain fully visible),
//   3. QPS dip during swap — find_related throughput from a concurrent
//      reader thread while recluster() runs on the main thread, versus
//      the same reader loop quiescent. Readers keep serving the old
//      generation for the whole shadow build; only the final swap takes
//      the exclusive lock, so the dip should be modest. The same reader
//      also records its slowest single query in both phases: the stall
//      the swap's exclusive section costs one query,
//   4. memory — peak resident memory (VmHWM) after recluster() minus
//      resident memory (VmRSS) just before it, from /proc/self/status:
//      what the epoch holds beside the live generation. VmHWM is the
//      process's lifetime peak, so the figure is an upper bound when
//      corpus construction peaked higher; it reads 0 where
//      /proc/self/status is unavailable. Next to it, VmRSS right after
//      recluster() returns (how much of the epoch's memory came back;
//      -1 without /proc/self/status) and the document analyses' resident
//      bytes per post (the ibseg_analysis_bytes gauge over the corpus).
//
// Results print as a table and are recorded in BENCH_recluster.json
// (current working directory, like the other reproduce.sh outputs, which
// schema-checks the keys). IBSEG_BENCH_SCALE scales the corpus.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
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

/// One pass of the reader loop: top-5 queries round-robin over the
/// corpus. Returns the number of queries issued; raises `*slowest_ms` to
/// the slowest single query of the pass.
uint64_t reader_pass(const ShardedServing& serving, size_t num_docs,
                     double* slowest_ms) {
  for (size_t q = 0; q < num_docs; ++q) {
    Stopwatch query_watch;
    serving.find_related(static_cast<DocId>(q), 5);
    *slowest_ms = std::max(*slowest_ms, query_watch.elapsed_millis());
  }
  return num_docs;
}

/// A memory line of /proc/self/status ("VmRSS", "VmHWM") in MiB, or -1
/// when the file or the line is unavailable.
double proc_status_mib(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

int run() {
  const size_t seed_posts =
      static_cast<size_t>(240 * bench::bench_scale());
  const size_t tail_posts =
      static_cast<size_t>(64 * bench::bench_scale());
  SyntheticCorpus corpus = generate_corpus(
      bench::eval_profile(ForumDomain::kTechSupport, seed_posts));
  SyntheticCorpus extra = generate_corpus(
      bench::eval_profile(ForumDomain::kTechSupport, tail_posts, 17));

  ServingOptions options;
  // Pool every ingest: the drain measurement wants a full pool, and the
  // differential suite proves pooling never changes results.
  options.recluster.pending_distance_threshold = 0.0;
  auto built = ShardedServing::create(analyze_corpus(corpus), {}, options);
  ShardedServing& serving = *built;
  for (const GeneratedPost& p : extra.posts) serving.add_post(p.text);

  const size_t num_docs = serving.num_docs();
  const size_t pending_before = serving.pending_pool_size();
  const uint64_t docs_since_before = serving.docs_since_recluster();

  // 1. Quiescent read throughput (same loop the dip measurement runs).
  uint64_t quiescent_queries = 0;
  double max_query_quiescent_ms = 0.0;
  Stopwatch quiescent_watch;
  while (quiescent_watch.elapsed_seconds() < 0.25) {
    quiescent_queries +=
        reader_pass(serving, num_docs, &max_query_quiescent_ms);
  }
  const double qps_quiescent =
      static_cast<double>(quiescent_queries) /
      quiescent_watch.elapsed_seconds();

  // 2+3. Recluster latency with a concurrent reader: the reader counts
  // completed queries in an atomic; the delta across the recluster()
  // window over its wall time is the during-swap QPS.
  std::atomic<uint64_t> reader_queries{0};
  std::atomic<bool> stop{false};
  double max_query_stall_ms = 0.0;  // written by the reader until join()
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      reader_pass(serving, num_docs, &max_query_stall_ms);
      reader_queries.fetch_add(num_docs, std::memory_order_relaxed);
    }
  });
  const double rss_before_mib = proc_status_mib("VmRSS");
  const uint64_t before_swap = reader_queries.load();
  Stopwatch recluster_watch;
  const uint64_t generation = serving.recluster();
  const double recluster_sec = recluster_watch.elapsed_seconds();
  const uint64_t during_swap = reader_queries.load() - before_swap;
  const double rss_after_mib = proc_status_mib("VmRSS");
  const double hwm_after_mib = proc_status_mib("VmHWM");
  stop.store(true);
  reader.join();
  const double rss_growth_mib = rss_before_mib >= 0.0 && hwm_after_mib >= 0.0
                                    ? hwm_after_mib - rss_before_mib
                                    : 0.0;

  size_t analysis_bytes = 0;
  for (uint32_t s = 0; s < serving.num_shards(); ++s) {
    analysis_bytes += serving.shard(s).analysis_bytes();
  }
  const double analysis_bytes_per_post =
      static_cast<double>(analysis_bytes) / static_cast<double>(num_docs);
  const size_t pending_after = serving.pending_pool_size();
  const uint64_t docs_since_after = serving.docs_since_recluster();
  const double qps_during_swap =
      recluster_sec > 0.0 ? static_cast<double>(during_swap) / recluster_sec
                          : 0.0;
  const double dip_fraction =
      qps_quiescent > 0.0 ? 1.0 - qps_during_swap / qps_quiescent : 0.0;

  TablePrinter table({"measurement", "value"});
  table.add_row({"seed posts", std::to_string(seed_posts)});
  table.add_row({"ingested tail", std::to_string(tail_posts)});
  table.add_row({"pending pool before", std::to_string(pending_before)});
  table.add_row({"pending pool after", std::to_string(pending_after)});
  table.add_row({"docs since recluster before",
                 std::to_string(static_cast<unsigned long long>(
                     docs_since_before))});
  table.add_row({"docs since recluster after",
                 std::to_string(static_cast<unsigned long long>(
                     docs_since_after))});
  table.add_row({"recluster (s)", fmt(recluster_sec, 3)});
  table.add_row({"QPS quiescent", fmt(qps_quiescent, 1)});
  table.add_row({"QPS during swap", fmt(qps_during_swap, 1)});
  table.add_row({"QPS dip fraction", fmt(dip_fraction, 3)});
  table.add_row({"slowest query quiescent (ms)",
                 fmt(max_query_quiescent_ms, 3)});
  table.add_row({"slowest query during epoch (ms)",
                 fmt(max_query_stall_ms, 3)});
  table.add_row({"RSS growth (MiB)", fmt(rss_growth_mib, 1)});
  table.add_row({"RSS after recluster (MiB)", fmt(rss_after_mib, 1)});
  table.add_row({"analysis bytes per post", fmt(analysis_bytes_per_post, 1)});
  std::printf("recluster_epoch: background re-clustering cost\n");
  table.print(std::cout);

  if (generation != 1 || pending_after != 0 || docs_since_after != 0) {
    std::fprintf(stderr,
                 "error: recluster did not drain (generation %llu, pool"
                 " %zu, docs_since %llu)\n",
                 static_cast<unsigned long long>(generation), pending_after,
                 static_cast<unsigned long long>(docs_since_after));
    return 1;
  }

  FILE* out = std::fopen("BENCH_recluster.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"recluster\",\n");
    std::fprintf(out, "  \"seed_posts\": %zu,\n", seed_posts);
    std::fprintf(out, "  \"ingested_posts\": %zu,\n", tail_posts);
    std::fprintf(out, "  \"pending_before\": %zu,\n", pending_before);
    std::fprintf(out, "  \"pending_after\": %zu,\n", pending_after);
    std::fprintf(out, "  \"docs_since_before\": %llu,\n",
                 static_cast<unsigned long long>(docs_since_before));
    std::fprintf(out, "  \"docs_since_after\": %llu,\n",
                 static_cast<unsigned long long>(docs_since_after));
    std::fprintf(out, "  \"offline_generation\": %llu,\n",
                 static_cast<unsigned long long>(generation));
    std::fprintf(out, "  \"recluster_sec\": %.6f,\n", recluster_sec);
    std::fprintf(out, "  \"qps_quiescent\": %.1f,\n", qps_quiescent);
    std::fprintf(out, "  \"qps_during_swap\": %.1f,\n", qps_during_swap);
    std::fprintf(out, "  \"qps_dip_fraction\": %.4f,\n", dip_fraction);
    std::fprintf(out, "  \"max_query_quiescent_ms\": %.3f,\n",
                 max_query_quiescent_ms);
    std::fprintf(out, "  \"max_query_stall_ms\": %.3f,\n",
                 max_query_stall_ms);
    std::fprintf(out, "  \"rss_growth_mib\": %.1f,\n", rss_growth_mib);
    std::fprintf(out, "  \"rss_after_mib\": %.1f,\n", rss_after_mib);
    std::fprintf(out, "  \"analysis_bytes_per_post\": %.1f\n",
                 analysis_bytes_per_post);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_recluster.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
