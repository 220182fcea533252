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
// The quiescent and the during-epoch reader windows run as kRounds
// rotating rounds (round r starts at the quiescent window when r is even,
// at the epoch when it is odd), each epoch window being one recluster();
// the QPS rows and the dip are medians with q1/q3 over the rounds, the dip
// paired within each round. The drain and memory rows read the first
// epoch, the only one with a pending pool to drain.
//
// Results print as a table and are recorded in BENCH_recluster.json
// (current working directory, like the other reproduce.sh outputs, which
// schema-checks the keys). IBSEG_BENCH_SCALE scales the corpus.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/sharded_serving.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/sync.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

/// Rounds of the (quiescent, during-epoch) reader windows.
constexpr size_t kRounds = 9;
/// Length of a quiescent reader window.
constexpr std::chrono::milliseconds kQuiescentWindow{250};

/// One reader window: a reader thread issues top-5 queries round-robin
/// over the corpus, counting each, while `body` runs on this thread.
/// Returns the queries per second completed during `body` and raises
/// `*slowest_ms` to the window's slowest single query.
template <typename Body>
double reader_window(const ShardedServing& serving, double* slowest_ms,
                     Body&& body) {
  const size_t num_docs = serving.num_docs();
  std::atomic<uint64_t> queries{0};
  std::atomic<bool> stop{false};
  double slowest = 0.0;  // written by the reader until join()
  CyclicBarrier start(2);
  std::thread reader([&] {
    start.arrive_and_wait();
    for (size_t q = 0; !stop.load(std::memory_order_relaxed);
         q = (q + 1) % num_docs) {
      Stopwatch query_watch;
      serving.find_related(static_cast<DocId>(q), 5);
      slowest = std::max(slowest, query_watch.elapsed_millis());
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  });
  start.arrive_and_wait();
  Stopwatch watch;
  body();
  const double seconds = watch.elapsed_seconds();
  const uint64_t done = queries.load(std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  *slowest_ms = std::max(*slowest_ms, slowest);
  return seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0;
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

  // Arm 0 reads for kQuiescentWindow with nothing else running; arm 1
  // reads while one recluster() runs on this thread.
  std::vector<double> recluster_secs;
  uint64_t generation = 0;
  double max_query_quiescent_ms = 0.0;
  double max_query_stall_ms = 0.0;
  double rss_before_mib = -1.0;
  double rss_after_mib = -1.0;
  double hwm_after_mib = -1.0;
  size_t pending_after = 0;
  uint64_t docs_since_after = 0;
  const std::vector<std::vector<double>> qps =
      bench::rotating_rounds(2, kRounds, [&](size_t arm) {
        if (arm == 0) {
          return reader_window(serving, &max_query_quiescent_ms, [] {
            std::this_thread::sleep_for(kQuiescentWindow);
          });
        }
        const bool first = recluster_secs.empty();
        if (first) rss_before_mib = proc_status_mib("VmRSS");
        const double during = reader_window(serving, &max_query_stall_ms, [&] {
          Stopwatch recluster_watch;
          generation = serving.recluster();
          recluster_secs.push_back(recluster_watch.elapsed_seconds());
        });
        if (first) {
          rss_after_mib = proc_status_mib("VmRSS");
          hwm_after_mib = proc_status_mib("VmHWM");
          pending_after = serving.pending_pool_size();
          docs_since_after = serving.docs_since_recluster();
        }
        return during;
      });
  std::vector<double> dip;
  for (size_t r = 0; r < kRounds; ++r) {
    dip.push_back(qps[0][r] > 0.0 ? 1.0 - qps[1][r] / qps[0][r] : 0.0);
  }
  const bench::Spread qps_quiescent = bench::spread_of(qps[0]);
  const bench::Spread qps_during_swap = bench::spread_of(qps[1]);
  const bench::Spread dip_fraction = bench::spread_of(dip);
  const bench::Spread recluster_sec = bench::spread_of(recluster_secs);
  const double rss_growth_mib = rss_before_mib >= 0.0 && hwm_after_mib >= 0.0
                                    ? hwm_after_mib - rss_before_mib
                                    : 0.0;

  size_t analysis_bytes = 0;
  for (uint32_t s = 0; s < serving.num_shards(); ++s) {
    analysis_bytes += serving.shard(s).analysis_bytes();
  }
  const double analysis_bytes_per_post =
      static_cast<double>(analysis_bytes) / static_cast<double>(num_docs);

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
  const std::string of_rounds =
      ", median [q1, q3] of " + std::to_string(kRounds);
  table.add_row({"recluster (s)" + of_rounds,
                 bench::spread_text(recluster_sec, 3)});
  table.add_row({"QPS quiescent" + of_rounds,
                 bench::spread_text(qps_quiescent, 1)});
  table.add_row({"QPS during swap" + of_rounds,
                 bench::spread_text(qps_during_swap, 1)});
  table.add_row({"QPS dip fraction" + of_rounds,
                 bench::spread_text(dip_fraction, 3)});
  table.add_row({"slowest query quiescent (ms)",
                 str_format("%.3f", max_query_quiescent_ms)});
  table.add_row({"slowest query during epoch (ms)",
                 str_format("%.3f", max_query_stall_ms)});
  table.add_row({"RSS growth (MiB)", str_format("%.1f", rss_growth_mib)});
  table.add_row({"RSS after recluster (MiB)",
                 str_format("%.1f", rss_after_mib)});
  table.add_row({"analysis bytes per post",
                 str_format("%.1f", analysis_bytes_per_post)});
  std::printf("recluster_epoch: background re-clustering cost\n");
  table.print(std::cout);

  if (generation != kRounds || pending_after != 0 || docs_since_after != 0) {
    std::fprintf(stderr,
                 "error: recluster did not drain (generation %llu of %zu,"
                 " pool %zu, docs_since %llu)\n",
                 static_cast<unsigned long long>(generation), kRounds,
                 pending_after,
                 static_cast<unsigned long long>(docs_since_after));
    return 1;
  }

  bench::BenchJson json("recluster");
  json.put("seed_posts", seed_posts);
  json.put("ingested_posts", tail_posts);
  json.put("pending_before", pending_before);
  json.put("pending_after", pending_after);
  json.put("docs_since_before", docs_since_before);
  json.put("docs_since_after", docs_since_after);
  json.put("offline_generation", generation);
  json.put("rounds", kRounds);
  json.put("recluster_sec", recluster_sec);
  json.put("qps_quiescent", qps_quiescent);
  json.put("qps_during_swap", qps_during_swap);
  json.put("qps_dip_fraction", dip_fraction);
  json.put("max_query_quiescent_ms", max_query_quiescent_ms);
  json.put("max_query_stall_ms", max_query_stall_ms);
  json.put("rss_growth_mib", rss_growth_mib);
  json.put("rss_after_mib", rss_after_mib);
  json.put("analysis_bytes_per_post", analysis_bytes_per_post);
  json.write();
  return 0;
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
