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
// Windows run as kPairs rotating rounds of (disabled, enabled), the order
// inside a round alternating (off-on, on-off, ...) so linear drift
// (thermal, page cache, a neighbour's load) cancels instead of biasing one
// mode. Each round yields one paired delta, in % of the disabled QPS and in
// ns of reader-thread time per query; the bench reports their median and
// quartiles — the median rather than the mean drops scheduler outliers,
// and the quartile spread shows whether the host's noise can resolve the
// 2% bound at all. Results are written to BENCH_obs_overhead.json.
// IBSEG_BENCH_SCALE scales the corpus; IBSEG_QPS_WINDOW_MS overrides the
// per-window measurement time.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

constexpr size_t kReaderThreads = 4;
constexpr size_t kIngestThreads = 2;
constexpr size_t kPairs = 20;

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
  const int window = window_ms(600);
  const Fleet fleet;

  // Arm 0 runs with timing off, arm 1 with it on. A fresh deployment per
  // window keeps corpus growth from earlier windows out of this one's
  // query costs.
  struct Window {
    bool metrics_on = false;
    Fleet::Result result;
  };
  std::vector<Window> windows;  // in run order
  const std::vector<std::vector<double>> qps =
      rotating_rounds(2, kPairs, [&](size_t arm) {
        const bool metrics_on = arm == 1;
        obs::set_enabled(metrics_on);
        auto serving = ShardedServing::create(analyze_corpus(corpus));
        windows.push_back({metrics_on, fleet.run(*serving, kReaderThreads,
                                                 kIngestThreads, window)});
        obs::set_enabled(true);  // leave the process in the default state
        return windows.back().result.qps();
      });
  const std::vector<double>& qps_off = qps[0];
  const std::vector<double>& qps_on = qps[1];
  std::vector<double> delta_pct, delta_ns;
  for (size_t p = 0; p < kPairs; ++p) {
    const double off = qps_off[p];
    const double on = qps_on[p];
    delta_pct.push_back(off > 0.0 ? (off - on) / off * 100.0 : 0.0);
    delta_ns.push_back(ns_per_query(on) - ns_per_query(off));
  }
  const double med_off = quantile(qps_off, 0.5);
  const double med_on = quantile(qps_on, 0.5);
  const Spread pct = spread_of(delta_pct);
  const Spread ns = spread_of(delta_ns);

  TablePrinter table({"pair", "QPS off", "QPS on", "delta %", "delta ns/query"});
  for (size_t p = 0; p < kPairs; ++p) {
    table.add_row({std::to_string(p + 1), str_format("%.1f", qps_off[p]),
                   str_format("%.1f", qps_on[p]),
                   str_format("%.2f", delta_pct[p]),
                   str_format("%.0f", delta_ns[p])});
  }
  std::printf(
      "obs_overhead: serving QPS with timing instrumentation on vs off\n");
  table.print(std::cout);
  std::printf("median QPS off=%.1f on=%.1f (%.0f / %.0f ns per query)\n",
              med_off, med_on, ns_per_query(med_off), ns_per_query(med_on));
  std::printf(
      "paired delta over %zu pairs: median %.2f%% (q1 %.2f%%, q3 %.2f%%), "
      "%.0f ns/query (q1 %.0f, q3 %.0f) -> target <2%%: %s\n",
      kPairs, pct.median, pct.q1, pct.q3, ns.median, ns.q1, ns.q3,
      pct.median < 2.0 ? "met" : "MISSED");

  BenchJson json("obs_overhead");
  json.put("corpus_posts", corpus_size);
  json.put("window_ms", window);
  json.put("reader_threads", kReaderThreads);
  json.put("ingest_threads", kIngestThreads);
  json.array("windows", [&] {
    for (const Window& w : windows) {
      json.element([&] {
        json.put("metrics", w.metrics_on ? "on" : "off");
        json.put("qps", w.result.qps());
        json.put("ingests_per_sec", w.result.ingests_per_sec());
      });
    }
  });
  json.put("pairs", kPairs);
  json.put("median_qps_disabled", med_off);
  json.put("median_qps_enabled", med_on);
  json.put("overhead_pct", pct);
  json.put("overhead_ns_per_query", ns);
  json.put("target_pct", 2.0);
  json.put("within_target", pct.median < 2.0);
  json.write();
  return 0;
}
