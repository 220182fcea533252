// Observability overhead: proves the metrics layer is cheap enough to
// leave on in production. Runs the concurrent_qps serving scenario (4
// reader threads + 2 continuous ingest writers over a fresh one-shard
// ShardedServing) in interleaved windows with timing instrumentation enabled
// (obs::set_enabled(true)) and disabled, and reports the median paired
// delta. The target is <2% regression — TraceScope costs two steady-clock
// reads plus a short bucket scan and three relaxed atomic RMWs per
// sample, against queries that cost tens of microseconds to milliseconds.
//
// What "disabled" means: set_enabled(false) turns every TraceScope into a
// no-op (no clock reads, no histogram writes). Raw counter increments
// (queries_total etc.) stay on in both modes — a relaxed fetch_add costs
// about as much as checking the flag would, so gating them would not make
// the disabled mode measurably faster.
//
// Windows run in kPairs adjacent (disabled, enabled) pairs, the order
// inside a pair alternating (off-on, on-off, ...) so linear drift
// (thermal, page cache, a neighbour's load) cancels instead of biasing one
// mode. Each pair yields one paired delta, in % of the disabled QPS and in
// ns of reader-thread time per query; the bench reports their median and
// quartiles — the median rather than the mean drops scheduler outliers,
// and the quartile spread shows whether the host's noise can resolve the
// 2% bound at all. Results are written to BENCH_obs_overhead.json.
// IBSEG_BENCH_SCALE scales the corpus; IBSEG_OBS_WINDOW_MS overrides the
// per-window measurement time.

#include <algorithm>
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
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/sync.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

constexpr size_t kReaderThreads = 4;
constexpr size_t kIngestThreads = 2;
constexpr size_t kPairs = 20;

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

int window_ms() {
  const char* env = std::getenv("IBSEG_OBS_WINDOW_MS");
  if (env == nullptr) return 600;
  int v = std::atoi(env);
  return v > 0 ? v : 600;
}

struct WindowResult {
  bool metrics_on = false;
  double qps = 0.0;
  double ingests_per_sec = 0.0;
};

WindowResult run_window(const SyntheticCorpus& corpus, bool metrics_on,
                        const std::vector<std::string>& ingest_texts,
                        const std::vector<Document>& externals) {
  // A fresh deployment per window keeps corpus growth from earlier
  // windows out of this one's query costs.
  obs::set_enabled(metrics_on);
  auto built = ShardedServing::create(analyze_corpus(corpus));
  ShardedServing& serving = *built;
  const size_t num_docs = serving.num_docs();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> ingests{0};
  CyclicBarrier barrier(kReaderThreads + kIngestThreads + 1);

  ScopedThreads threads;
  for (size_t w = 0; w < kIngestThreads; ++w) {
    threads.spawn([&, w] {
      barrier.arrive_and_wait();
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        serving.add_post(ingest_texts[(w + i++) % ingest_texts.size()]);
        ingests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t t = 0; t < kReaderThreads; ++t) {
    threads.spawn([&, t] {
      barrier.arrive_and_wait();
      Rng rng(10 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.next_bool(0.25)) {
          serving.find_related_external(
              externals[rng.next_below(externals.size())], 5);
        } else {
          serving.find_related(static_cast<DocId>(rng.next_below(num_docs)),
                               5);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  barrier.arrive_and_wait();
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms()));
  stop.store(true, std::memory_order_relaxed);
  threads.join_all();
  double elapsed = watch.elapsed_seconds();
  obs::set_enabled(true);  // leave the process in the default state

  WindowResult r;
  r.metrics_on = metrics_on;
  r.qps = static_cast<double>(queries.load()) / elapsed;
  r.ingests_per_sec = static_cast<double>(ingests.load()) / elapsed;
  return r;
}

/// Reader-thread time per query, in ns, of a window at `qps`.
double ns_per_query(double qps) {
  return qps > 0.0 ? static_cast<double>(kReaderThreads) / qps * 1e9 : 0.0;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  const size_t corpus_size = static_cast<size_t>(200 * bench_scale());
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

  // Pair p runs off-on when p is even and on-off when it is odd: drift
  // that is monotone over the run contributes equally to both modes.
  std::vector<WindowResult> windows;
  std::vector<double> qps_off, qps_on, delta_pct, delta_ns;
  for (size_t p = 0; p < kPairs; ++p) {
    WindowResult pair[2];
    for (bool metrics_on : {p % 2 == 1, p % 2 == 0}) {
      pair[metrics_on ? 1 : 0] =
          run_window(corpus, metrics_on, ingest_texts, externals);
      windows.push_back(pair[metrics_on ? 1 : 0]);
    }
    const double off = pair[0].qps;
    const double on = pair[1].qps;
    qps_off.push_back(off);
    qps_on.push_back(on);
    delta_pct.push_back(off > 0.0 ? (off - on) / off * 100.0 : 0.0);
    delta_ns.push_back(ns_per_query(on) - ns_per_query(off));
  }
  const double med_off = quantile(qps_off, 0.5);
  const double med_on = quantile(qps_on, 0.5);
  const double overhead_pct = quantile(delta_pct, 0.5);
  const double pct_q1 = quantile(delta_pct, 0.25);
  const double pct_q3 = quantile(delta_pct, 0.75);
  const double overhead_ns = quantile(delta_ns, 0.5);
  const double ns_q1 = quantile(delta_ns, 0.25);
  const double ns_q3 = quantile(delta_ns, 0.75);

  TablePrinter table({"pair", "QPS off", "QPS on", "delta %", "delta ns/query"});
  for (size_t p = 0; p < kPairs; ++p) {
    table.add_row({std::to_string(p + 1), fmt(qps_off[p], 1),
                   fmt(qps_on[p], 1), fmt(delta_pct[p], 2),
                   fmt(delta_ns[p], 0)});
  }
  std::printf(
      "obs_overhead: serving QPS with timing instrumentation on vs off\n");
  table.print(std::cout);
  std::printf("median QPS off=%.1f on=%.1f (%.0f / %.0f ns per query)\n",
              med_off, med_on, ns_per_query(med_off), ns_per_query(med_on));
  std::printf(
      "paired delta over %zu pairs: median %.2f%% (q1 %.2f%%, q3 %.2f%%), "
      "%.0f ns/query (q1 %.0f, q3 %.0f) -> target <2%%: %s\n",
      kPairs, overhead_pct, pct_q1, pct_q3, overhead_ns, ns_q1, ns_q3,
      overhead_pct < 2.0 ? "met" : "MISSED");

  FILE* out = std::fopen("BENCH_obs_overhead.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"obs_overhead\",\n");
    std::fprintf(out, "  \"corpus_posts\": %zu,\n", corpus_size);
    std::fprintf(out, "  \"window_ms\": %d,\n", window_ms());
    std::fprintf(out, "  \"reader_threads\": %zu,\n", kReaderThreads);
    std::fprintf(out, "  \"ingest_threads\": %zu,\n", kIngestThreads);
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"windows\": [\n");
    for (size_t i = 0; i < windows.size(); ++i) {
      std::fprintf(out,
                   "    {\"metrics\": \"%s\", \"qps\": %.1f, "
                   "\"ingests_per_sec\": %.1f}%s\n",
                   windows[i].metrics_on ? "on" : "off", windows[i].qps,
                   windows[i].ingests_per_sec,
                   i + 1 < windows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"pairs\": %zu,\n", kPairs);
    std::fprintf(out, "  \"median_qps_disabled\": %.1f,\n", med_off);
    std::fprintf(out, "  \"median_qps_enabled\": %.1f,\n", med_on);
    std::fprintf(out, "  \"overhead_pct\": %.2f,\n", overhead_pct);
    std::fprintf(out, "  \"overhead_pct_q1\": %.2f,\n", pct_q1);
    std::fprintf(out, "  \"overhead_pct_q3\": %.2f,\n", pct_q3);
    std::fprintf(out, "  \"overhead_ns_per_query\": %.1f,\n", overhead_ns);
    std::fprintf(out, "  \"overhead_ns_per_query_q1\": %.1f,\n", ns_q1);
    std::fprintf(out, "  \"overhead_ns_per_query_q3\": %.1f,\n", ns_q3);
    std::fprintf(out, "  \"target_pct\": 2.0,\n");
    std::fprintf(out, "  \"within_target\": %s\n",
                 overhead_pct < 2.0 ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_obs_overhead.json\n");
  }
  return 0;
}
