// Tests for the observability layer (src/obs): histogram bucket
// boundaries and quantile goldens, counter exactness under threads,
// deterministic registry rendering, and the serving integration — query
// metrics must actually advance when ShardedServing serves queries.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ibseg {
namespace {

// --- Histogram bucket geometry -------------------------------------------

TEST(HistogramTest, BucketBoundariesFollowThe125Series) {
  const auto& b = obs::Histogram::bounds();
  ASSERT_EQ(b.size(), obs::Histogram::kNumBounds);
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_DOUBLE_EQ(b.back(), 100.0);
  // Strictly ascending, and each decade holds the 1-2-5 triple.
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_DOUBLE_EQ(b[0] * 2, b[1]);
  EXPECT_DOUBLE_EQ(b[0] * 5, b[2]);
  EXPECT_DOUBLE_EQ(b[0] * 10, b[3]);
}

TEST(HistogramTest, BucketForPicksFirstBoundAtOrAboveValue) {
  using H = obs::Histogram;
  // Exact bounds are inclusive upper edges.
  EXPECT_EQ(H::bucket_for(1e-6), 0u);
  EXPECT_EQ(H::bucket_for(2e-6), 1u);
  EXPECT_EQ(H::bucket_for(100.0), 24u);
  // In-between values round up to the covering bucket.
  EXPECT_EQ(H::bucket_for(1.5e-6), 1u);
  EXPECT_EQ(H::bucket_for(0.0123), 13u);  // (1e-2, 2e-2]
  // Above the largest bound: overflow bucket.
  EXPECT_EQ(H::bucket_for(101.0), H::kNumBounds);
  EXPECT_EQ(H::bucket_for(1e9), H::kNumBounds);
  // Non-positive and NaN land in the first bucket rather than anywhere odd.
  EXPECT_EQ(H::bucket_for(0.0), 0u);
  EXPECT_EQ(H::bucket_for(-3.0), 0u);
  EXPECT_EQ(H::bucket_for(std::nan("")), 0u);
}

TEST(HistogramTest, CountSumAndBucketsTrackObservations) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  h.observe(0.0015);  // bucket 10: (1e-3, 2e-3]
  h.observe(0.0015);
  h.observe(0.3);  // bucket 17: (0.2, 0.5]
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 0.303, 1e-8);  // fixed-point: exact to 1 ns
  EXPECT_EQ(h.bucket_count(10), 2u);
  EXPECT_EQ(h.bucket_count(17), 1u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

// --- Quantile goldens -----------------------------------------------------

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinSingleBucket) {
  // 100 observations, all in bucket (1e-3, 2e-3]. Interpolation assumes a
  // uniform spread over the bucket, so pX = 1e-3 + (X/100) * 1e-3.
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.0015);
  EXPECT_NEAR(h.quantile(0.50), 1e-3 + 0.50 * 1e-3, 1e-12);
  EXPECT_NEAR(h.quantile(0.95), 1e-3 + 0.95 * 1e-3, 1e-12);
  EXPECT_NEAR(h.quantile(0.99), 1e-3 + 0.99 * 1e-3, 1e-12);
}

TEST(HistogramTest, QuantileSpansBuckets) {
  // 50 fast (bucket (2e-4, 5e-4]) + 50 slow (bucket (0.1, 0.2]).
  obs::Histogram h;
  for (int i = 0; i < 50; ++i) h.observe(0.0004);
  for (int i = 0; i < 50; ++i) h.observe(0.15);
  // p50: target rank 50 is the last observation of the fast bucket — the
  // interpolated value is its upper edge.
  EXPECT_NEAR(h.quantile(0.50), 5e-4, 1e-12);
  // p95: rank 95 = 45th of 50 within (0.1, 0.2] -> 0.1 + 0.9 * 0.1.
  EXPECT_NEAR(h.quantile(0.95), 0.19, 1e-12);
}

TEST(HistogramTest, OverflowQuantileClampsToLargestBound) {
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(500.0);  // all overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kNumBounds), 10u);
}

// --- Concurrency: exactness of relaxed counting ---------------------------

TEST(ObsConcurrencyTest, CounterIsExactUnderEightThreads) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsConcurrencyTest, HistogramCountAndSumAreExactUnderEightThreads) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(0.001);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_count(9), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 0.001, 1e-6);
}

// --- Registry semantics and rendering -------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstance) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", "first help wins");
  obs::Counter& b = reg.counter("x_total", "ignored");
  EXPECT_EQ(&a, &b);
  // Different labels -> different instance in the same family.
  obs::Counter& c = reg.counter("x_total", "", {{"op", "q"}});
  EXPECT_NE(&a, &c);
  // Same name, different kind -> distinct (kind is part of the identity).
  obs::Gauge& g = reg.gauge("x_total", "");
  g.set(7.0);
  EXPECT_EQ(a.value(), 0u);
}

TEST(MetricsRegistryTest, RenderTextSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("zz_events_total", "Events.").inc(3);
  reg.gauge("aa_size", "Current size.").set(42);
  obs::Histogram& h =
      reg.histogram("mid_seconds", "Latency.", {{"op", "q"}});
  h.observe(2e-6);  // bucket le=2e-06 (bounds are inclusive upper edges)
  h.observe(0.5);   // bucket le=0.5

  std::string text = reg.render_text();
  // Families are sorted by name; the full exposition is deterministic, so
  // a golden for the non-histogram parts plus spot checks for the long
  // bucket series keeps the test readable.
  EXPECT_EQ(text.substr(0, text.find("mid_seconds_bucket")),
            "# HELP aa_size Current size.\n"
            "# TYPE aa_size gauge\n"
            "aa_size 42\n"
            "# HELP mid_seconds Latency.\n"
            "# TYPE mid_seconds histogram\n");
  // Cumulative buckets: nothing below 2e-6, everything at and after 0.5.
  EXPECT_NE(text.find("mid_seconds_bucket{op=\"q\",le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("mid_seconds_bucket{op=\"q\",le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mid_seconds_bucket{op=\"q\",le=\"0.5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mid_seconds_bucket{op=\"q\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mid_seconds_sum{op=\"q\"} 0.500002\n"),
            std::string::npos);
  EXPECT_NE(text.find("mid_seconds_count{op=\"q\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP zz_events_total Events.\n"
                      "# TYPE zz_events_total counter\n"
                      "zz_events_total 3\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, RenderJsonCarriesQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat_seconds", "Latency.");
  for (int i = 0; i < 100; ++i) h.observe(0.0015);
  std::string json = reg.render_json();
  EXPECT_NE(json.find("\"name\": \"lat_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 0.0015"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 0.00199"), std::string::npos);
}

// --- Stage trace plumbing -------------------------------------------------

TEST(TraceTest, StageNamesMatchTheDocumentedCatalog) {
  using obs::Stage;
  EXPECT_STREQ(obs::stage_name(Stage::kAnalyze), "analyze");
  EXPECT_STREQ(obs::stage_name(Stage::kSegment), "segment");
  EXPECT_STREQ(obs::stage_name(Stage::kGroup), "group");
  EXPECT_STREQ(obs::stage_name(Stage::kClusterAssign), "cluster-assign");
  EXPECT_STREQ(obs::stage_name(Stage::kIndexPublish), "index-publish");
  EXPECT_STREQ(obs::stage_name(Stage::kTermWeight), "term-weight");
  EXPECT_STREQ(obs::stage_name(Stage::kScore), "score");
  EXPECT_STREQ(obs::stage_name(Stage::kTopK), "top-k");
}

TEST(TraceTest, TraceScopeRecordsOnceAndStopDisarms) {
  obs::Histogram h;
  {
    obs::TraceScope scope(h);
    scope.stop();
    scope.stop();  // idempotent
  }                // destructor must not double-record
  EXPECT_EQ(h.count(), 1u);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  obs::Histogram h;
  obs::set_enabled(false);
  { obs::TraceScope scope(h); }
  obs::set_enabled(true);
  EXPECT_EQ(h.count(), 0u);
  { obs::TraceScope scope(h); }
  EXPECT_EQ(h.count(), 1u);
}

// --- Serving integration --------------------------------------------------

// The serving metrics live in the process-wide registry, which other tests
// in this binary never touch by these names; reads are before/after deltas
// so the test stays valid whatever ran first.
TEST(ServingObservabilityTest, QueryAndIngestMetricsAdvance) {
  std::vector<Document> docs;
  std::vector<std::string> texts = {
      "My laptop overheats when compiling. The fan spins loudly. "
      "How can I improve the cooling? I already cleaned the vents.",
      "The compiler crashes with an internal error on this file. "
      "Has anyone seen this before? Which flags should I try?",
      "My laptop fan is loud under load and the case gets hot. "
      "What thermal paste do you recommend? Any cooling pad advice?",
      "After the last update the build takes twice as long. "
      "Is there a way to profile the build? Which step regressed?",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    docs.push_back(Document::analyze(static_cast<DocId>(i), texts[i]));
  }
  auto built = ShardedServing::create(std::move(docs));
  ShardedServing& serving = *built;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& queries = reg.counter(
      "ibseg_queries_total", "",
      {{"op", "find_related"}, {"tenant", "default"}});
  obs::Histogram& latency = reg.histogram(
      "ibseg_query_seconds", "",
      {{"op", "find_related"}, {"tenant", "default"}});
  obs::Counter& ingested = reg.counter("ibseg_ingested_posts_total", "");
  obs::Gauge& corpus =
      reg.gauge("ibseg_corpus_docs", "", {{"tenant", "default"}});

  uint64_t queries_before = queries.value();
  uint64_t latency_before = latency.count();
  double latency_sum_before = latency.sum();
  serving.find_related(0, 3);
  serving.find_related(1, 3);
  EXPECT_EQ(queries.value(), queries_before + 2);
  EXPECT_EQ(latency.count(), latency_before + 2);
  EXPECT_GE(latency.sum(), latency_sum_before);

  uint64_t ingested_before = ingested.value();
  serving.add_post(
      "New post about fan noise and overheating during long builds. "
      "Looking for cooling advice and compiler tips.");
  EXPECT_EQ(ingested.value(), ingested_before + 1);
  // The tenant's corpus gauge counts every shard's documents.
  EXPECT_DOUBLE_EQ(corpus.value(), static_cast<double>(serving.num_docs()));

  // The stage histograms exist in the exposition (registered as a catalog,
  // so even never-fired stages render at zero).
  std::string text = obs::render_text();
  EXPECT_NE(text.find("ibseg_stage_seconds_count{stage=\"analyze\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ibseg_stage_seconds_count{stage=\"score\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ibseg_stage_seconds_count{stage=\"top-k\"}"),
            std::string::npos);
}

// Every served query lands in exactly one {op, tenant} series — cache
// hits included — so two instances in one process never share a count.
TEST(ServingObservabilityTest, QueriesAreCountedPerOpAndTenant) {
  GeneratorOptions gen;
  gen.num_posts = 16;
  gen.seed = 5;
  ServingOptions a_options;
  a_options.tenant = "obs_a";
  a_options.cache.capacity = 64;
  ServingOptions b_options;
  b_options.tenant = "obs_b";
  auto a = ShardedServing::create(analyze_corpus(generate_corpus(gen)), {},
                                  a_options);
  auto b = ShardedServing::create(analyze_corpus(generate_corpus(gen)), {},
                                  b_options);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  auto count = [&](const char* op, const char* tenant) {
    return reg.counter("ibseg_queries_total", "",
                       {{"op", op}, {"tenant", tenant}})
        .value();
  };
  a->find_related(1, 3);
  a->find_related(1, 3);  // a cache hit still counts
  a->find_related_external(Document::analyze(1u << 30, "my printer jams"), 3);
  b->find_related(2, 3);
  EXPECT_EQ(count("find_related", "obs_a"), 2u);
  EXPECT_EQ(count("find_related_external", "obs_a"), 1u);
  EXPECT_EQ(count("find_related", "obs_b"), 1u);
  EXPECT_EQ(count("find_related_external", "obs_b"), 0u);
  EXPECT_EQ(reg.histogram("ibseg_query_seconds", "",
                          {{"op", "find_related"}, {"tenant", "obs_a"}})
                .count(),
            2u);
}

/// The {tenant} corpus gauges must equal the tenant's true totals summed
/// over its shards — not the last shard that published, and not another
/// tenant's values.
void expect_corpus_gauges(const ShardedServing& serving,
                          const std::string& tenant, size_t docs,
                          const std::string& when) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  auto gauge = [&](const char* name) {
    return reg.gauge(name, "", {{"tenant", tenant}}).value();
  };
  size_t segments = 0;
  size_t postings_bytes = 0;
  for (uint32_t s = 0; s < serving.num_shards(); ++s) {
    const IntentionMatcher& m = serving.shard(s).quiescent().matcher();
    segments += m.num_segments();
    postings_bytes += m.postings_bytes();
  }
  const std::string what = tenant + " " + when;
  ASSERT_EQ(serving.num_docs(), docs) << what;
  EXPECT_EQ(gauge("ibseg_corpus_docs"), static_cast<double>(docs)) << what;
  EXPECT_EQ(gauge("ibseg_index_segments"), static_cast<double>(segments))
      << what;
  EXPECT_EQ(gauge("ibseg_postings_bytes"),
            static_cast<double>(postings_bytes))
      << what;
  EXPECT_EQ(gauge("ibseg_pending_pool_size"),
            static_cast<double>(serving.pending_pool_size()))
      << what;
  EXPECT_EQ(gauge("ibseg_offline_generation"),
            static_cast<double>(serving.offline_generation()))
      << what;
}

// Two tenants of different sizes, two shards each, ingesting in turn, then
// one recluster of one tenant: after every step each tenant's gauges are
// its own totals.
TEST(ServingObservabilityTest, CorpusGaugesAreTenantTotals) {
  ServingOptions a_options;
  a_options.num_shards = 2;
  a_options.tenant = "gauges_a";
  // Threshold 0: every ingest with a nonzero assignment distance enters
  // the pending pool, so the pool gauge is exercised.
  a_options.recluster.pending_distance_threshold = 0.0;
  ServingOptions b_options = a_options;
  b_options.tenant = "gauges_b";
  GeneratorOptions gen;
  gen.num_posts = 24;
  gen.seed = 3;
  auto a = ShardedServing::create(analyze_corpus(generate_corpus(gen)), {},
                                  a_options);
  gen.num_posts = 16;
  gen.seed = 4;
  auto b = ShardedServing::create(analyze_corpus(generate_corpus(gen)), {},
                                  b_options);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  size_t a_docs = 24;
  size_t b_docs = 16;
  expect_corpus_gauges(*a, "gauges_a", a_docs, "after create");
  expect_corpus_gauges(*b, "gauges_b", b_docs, "after create");

  gen.num_posts = 6;
  gen.seed = 5;
  SyntheticCorpus extra = generate_corpus(gen);
  for (size_t i = 0; i < extra.posts.size(); ++i) {
    const bool to_b = i % 3 == 2;
    (to_b ? *b : *a).add_post(extra.posts[i].text);
    ++(to_b ? b_docs : a_docs);
    const std::string when = "after ingest " + std::to_string(i);
    expect_corpus_gauges(*a, "gauges_a", a_docs, when);
    expect_corpus_gauges(*b, "gauges_b", b_docs, when);
  }
  EXPECT_GT(a->pending_pool_size(), 0u) << "the pool gauge is never nonzero";

  ASSERT_EQ(a->recluster(), 1u);
  expect_corpus_gauges(*a, "gauges_a", a_docs, "after recluster");
  expect_corpus_gauges(*b, "gauges_b", b_docs, "after recluster");
  b->add_post(extra.posts[0].text);
  ++b_docs;
  expect_corpus_gauges(*a, "gauges_a", a_docs, "after the last ingest");
  expect_corpus_gauges(*b, "gauges_b", b_docs, "after the last ingest");
}

}  // namespace
}  // namespace ibseg
