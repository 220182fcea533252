// Differential harness for the cached, pruned and scattered query paths.
// The serving-layer result cache, the MaxScore-pruned per-intention
// selection and the concurrent scatter legs are only shippable because
// each is provably identical —
// ranked lists AND scores, bit for bit — to the uncached, exhaustive
// reference execution (the Oracle, tests/oracle.h). These tests are
// property-style: seeded random corpora from src/datagen, every document
// as the reference query, multiple k, with interleaved ingests exercising
// the cache's epoch invalidation. Registered under the
// `differential` ctest label; scripts/reproduce.sh IBSEG_DIFF_CHECK=1
// runs the label under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "oracle.h"
#include "storage/snapshot.h"
#include "util/thread_pool.h"

namespace ibseg {
namespace {

constexpr size_t kPosts = 32;

GeneratorOptions corpus_options(size_t posts, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return gen;
}

// One offline phase per (posts, seed); per-variant pipelines restore from
// its snapshot so every variant indexes identical state and only the
// query-path configuration differs.
struct SharedOffline {
  SyntheticCorpus corpus;
  PipelineSnapshot snapshot;

  explicit SharedOffline(size_t posts, uint64_t seed)
      : corpus(generate_corpus(corpus_options(posts, seed))) {
    RelatedPostPipeline offline =
        RelatedPostPipeline::build(analyze_corpus(corpus));
    snapshot = offline.snapshot();
  }

  /// Variant with full control of the matcher options (the pruned vs
  /// exhaustive sweeps mutate top_n_factor / score_threshold /
  /// exhaustive_fallback).
  RelatedPostPipeline pipeline_with(const MatcherOptions& matcher) const {
    PipelineOptions options;
    options.matcher = matcher;
    return RelatedPostPipeline::build_from_snapshot(analyze_corpus(corpus),
                                                    snapshot, options);
  }
};

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    // operator== on the doubles: bit-identical is the contract, not
    // merely close.
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

// --------------------------------- cached vs uncached across ingests ----

// The cached pipeline must be indistinguishable from the uncached one at
// every step of an interleaved query/ingest schedule: hits must replay
// exactly what the index would answer, and every ingest must invalidate
// (epoch bump) so no stale ranking ever escapes. Epochs are compared too:
// a cached answer carrying an old epoch after an ingest is a failure even
// if the ranking happens to match.
TEST(Differential, CachedVsUncachedIdenticalAcrossInterleavedIngests) {
  SharedOffline offline(kPosts, 11);
  Oracle uncached(analyze_corpus(offline.corpus));
  ServingOptions with_cache;
  with_cache.cache.capacity = 16;  // small: exercises eviction mid-run
  with_cache.cache.shards = 2;
  auto built =
      ShardedServing::create(analyze_corpus(offline.corpus), {}, with_cache);
  ShardedServing& cached = *built;
  ASSERT_NE(cached.query_cache(), nullptr);

  SyntheticCorpus ingest_corpus =
      generate_corpus(corpus_options(6, /*seed=*/555));
  auto compare_all = [&](const std::string& when) {
    for (DocId q = 0; q < kPosts; ++q) {
      for (int k : {3, 7}) {
        auto want = uncached.find_related(q, k);
        // Twice: first call may fill the cache, second must hit it —
        // both must equal the uncached answer, epoch included.
        for (int round = 0; round < 2; ++round) {
          auto got = cached.find_related(q, k);
          EXPECT_EQ(got.epoch, want.epoch)
              << when << " q " << q << " k " << k << " round " << round;
          EXPECT_EQ(got.num_docs, want.num_docs)
              << when << " q " << q << " k " << k << " round " << round;
          expect_identical(got.results, want.results,
                           when + " q " + std::to_string(q) + " k " +
                               std::to_string(k) + " round " +
                               std::to_string(round));
        }
      }
    }
  };

  compare_all("pre-ingest");
  EXPECT_GT(cached.query_cache()->hits(), 0u);
  for (size_t i = 0; i < ingest_corpus.posts.size(); ++i) {
    DocId a = uncached.add_post(ingest_corpus.posts[i].text);
    DocId b = cached.add_post(ingest_corpus.posts[i].text);
    ASSERT_EQ(a, b);
    compare_all("after ingest " + std::to_string(i));
  }
  // The tiny capacity must have evicted along the way — otherwise this
  // test never exercised the eviction path.
  EXPECT_GT(cached.query_cache()->evictions(), 0u);
}

// ------------------------------------------- serial vs parallel legs ----

// The query path's parallelism is the scatter pool: a sharded query runs
// its per-shard legs concurrently, then merges them. The merge must not
// depend on how the legs were scheduled — queued one at a time on a
// single worker, one worker per shard (the facade's own pool), or a wide
// pool shared with other instances all reproduce the oracle bit for bit.
TEST(Differential, SerialVsParallelRankingsIdentical) {
  ThreadPool single_worker(1);
  ThreadPool wide(8);
  for (uint64_t seed : {11u, 777u}) {
    SyntheticCorpus corpus = generate_corpus(corpus_options(kPosts, seed));
    Oracle reference(analyze_corpus(corpus));
    for (int shards : {2, 8}) {
      struct Variant {
        const char* name;
        ThreadPool* pool;
        std::unique_ptr<ShardedServing> serving;
      };
      Variant variants[] = {{"serial", &single_worker, nullptr},
                            {"owned", nullptr, nullptr},
                            {"wide", &wide, nullptr}};
      for (Variant& v : variants) {
        ServingOptions options;
        options.num_shards = shards;
        options.scatter_pool = v.pool;
        options.tenant = std::string("legs_") + v.name;
        v.serving =
            ShardedServing::create(analyze_corpus(corpus), {}, options);
        ASSERT_NE(v.serving, nullptr);
      }
      for (DocId q = 0; q < kPosts; ++q) {
        for (int k : {1, 3, 10}) {
          auto want = reference.find_related(q, k).results;
          for (const Variant& v : variants) {
            expect_identical(v.serving->find_related(q, k).results, want,
                             "seed " + std::to_string(seed) + " shards " +
                                 std::to_string(shards) + " " + v.name +
                                 " q " + std::to_string(q) + " k " +
                                 std::to_string(k));
          }
        }
      }
    }
  }
}

// ----------------------------------------------- tie-handling regression ----

// Equal-score candidates must rank by ascending DocId — in the final
// merge AND inside each per-intention list (where a boundary tie used to
// be resolved by index-insertion order). Duplicated post texts guarantee
// exact score ties.
TEST(Differential, EqualScoreTiesOrderByDocId) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(16, 11));
  std::vector<Document> docs = analyze_corpus(corpus);
  const DocId base = static_cast<DocId>(docs.size());
  for (DocId i = 0; i < 3; ++i) {
    docs.push_back(Document::analyze(base + i, corpus.posts[0].text));
  }
  PipelineOptions serial_opt;
  RelatedPostPipeline serial =
      RelatedPostPipeline::build(std::move(docs), serial_opt);

  size_t tie_runs = 0;
  for (DocId q : {static_cast<DocId>(0), base, base + 1, base + 2}) {
    for (int k : {1, 2, 10}) {
      auto related = serial.find_related(q, k);
      for (size_t i = 1; i < related.size(); ++i) {
        if (related[i].score == related[i - 1].score) {
          ++tie_runs;
          EXPECT_LT(related[i - 1].doc, related[i].doc)
              << "equal-score run out of DocId order (q " << q << " k " << k
              << ")";
        }
      }
    }
    // Per-intention lists obey the same rule.
    for (int c = 0; c < serial.matcher().num_clusters(); ++c) {
      auto list = serial.matcher().match_single_intention(c, q, 10);
      for (size_t i = 1; i < list.size(); ++i) {
        if (list[i].score == list[i - 1].score) {
          EXPECT_LT(list[i - 1].doc, list[i].doc)
              << "per-intention equal-score run out of DocId order (cluster "
              << c << ")";
        }
      }
    }
  }
  // The duplicated posts must actually have produced score ties —
  // otherwise this regression test asserts nothing.
  EXPECT_GT(tie_runs, 0u);
}

// ------------------------------------- pruned vs exhaustive selection ----

// MaxScore pruning (score_units_maxscore, the default per-intention path)
// must be indistinguishable — bit for bit — from the historic exhaustive
// score-then-select path it replaced. The sweep crosses random corpora,
// every document as the query, k below/at/above the per-intention list
// length, top_n_factor (which sets n = factor*k and therefore where the
// selection boundary falls), and all three scoring functions. Any
// divergence — a doc admitted by one path and pruned by the other, or a
// score differing in the last ulp — fails.
TEST(Differential, PrunedVsExhaustiveSweep) {
  for (uint64_t seed : {11u, 777u}) {
    SharedOffline offline(kPosts, seed);
    for (ScoringFunction fn :
         {ScoringFunction::kPaperTfIdf, ScoringFunction::kBm25,
          ScoringFunction::kQueryLikelihood}) {
      for (int factor : {1, 2, 5}) {
        MatcherOptions pruned;
        pruned.scoring.function = fn;
        pruned.top_n_factor = factor;
        MatcherOptions exhaustive = pruned;
        exhaustive.exhaustive_fallback = true;
        RelatedPostPipeline p = offline.pipeline_with(pruned);
        RelatedPostPipeline e = offline.pipeline_with(exhaustive);
        for (DocId q = 0; q < kPosts; ++q) {
          // k sweep: tiny heaps (max pruning pressure), mid, the corpus
          // size, and k far beyond the corpus (pruning must degrade to
          // keep-everything without dropping a single positive score).
          for (int k : {1, 5, 10, 50, 1000}) {
            expect_identical(
                p.find_related(q, k), e.find_related(q, k),
                "pruned-vs-exhaustive seed " + std::to_string(seed) + " fn " +
                    std::to_string(static_cast<int>(fn)) + " factor " +
                    std::to_string(factor) + " q " + std::to_string(q) +
                    " k " + std::to_string(k));
          }
        }
      }
    }
  }
}

// Threshold mode (score_threshold > 0 replaces the per-intention top-n
// with keep-everything-above-the-bar) flows through a different selection
// rule in the pruned path: a static theta with keep-on-equality. Both
// paths must keep the exact same set.
TEST(Differential, PrunedVsExhaustiveThresholdMode) {
  SharedOffline offline(kPosts, 11);
  for (double threshold : {0.01, 0.2, 1.0}) {
    MatcherOptions pruned;
    pruned.score_threshold = threshold;
    MatcherOptions exhaustive = pruned;
    exhaustive.exhaustive_fallback = true;
    RelatedPostPipeline p = offline.pipeline_with(pruned);
    RelatedPostPipeline e = offline.pipeline_with(exhaustive);
    for (DocId q = 0; q < kPosts; ++q) {
      for (int k : {3, 10}) {
        expect_identical(p.find_related(q, k), e.find_related(q, k),
                         "threshold " + std::to_string(threshold) + " q " +
                             std::to_string(q) + " k " + std::to_string(k));
      }
    }
  }
}

// Pruning must stay exact across interleaved ingests: every add_post
// re-seals the flat postings and refreshes the per-term bounds, and a
// stale bound (too small after a new high-tf posting) would silently
// drop documents. Ingest into both pipelines in lockstep and compare the
// full query sweep after every post.
TEST(Differential, PrunedVsExhaustiveAcrossInterleavedIngests) {
  SharedOffline offline(kPosts, 777);
  MatcherOptions pruned;
  MatcherOptions exhaustive;
  exhaustive.exhaustive_fallback = true;
  PipelineOptions pruned_opt;
  pruned_opt.matcher = pruned;
  PipelineOptions exhaustive_opt;
  exhaustive_opt.matcher = exhaustive;
  Oracle p(analyze_corpus(offline.corpus), pruned_opt);
  Oracle e(analyze_corpus(offline.corpus), exhaustive_opt);

  SyntheticCorpus ingest_corpus =
      generate_corpus(corpus_options(6, /*seed=*/999));
  auto compare_all = [&](const std::string& when, size_t num_docs) {
    for (DocId q = 0; q < num_docs; ++q) {
      for (int k : {1, 5, 50}) {
        auto got = p.find_related(q, k);
        auto want = e.find_related(q, k);
        EXPECT_EQ(got.epoch, want.epoch) << when << " q " << q << " k " << k;
        expect_identical(got.results, want.results,
                         when + " q " + std::to_string(q) + " k " +
                             std::to_string(k));
      }
    }
  };

  compare_all("pre-ingest", kPosts);
  for (size_t i = 0; i < ingest_corpus.posts.size(); ++i) {
    DocId a = p.add_post(ingest_corpus.posts[i].text);
    DocId b = e.add_post(ingest_corpus.posts[i].text);
    ASSERT_EQ(a, b);
    compare_all("after ingest " + std::to_string(i), kPosts + i + 1);
  }
}

// Selection-boundary ties are where a pruning bug hides best: when the
// heap is full and a candidate's upper bound EQUALS the current worst
// score, skipping is only correct for larger DocIds. Duplicated post
// texts force exact score ties straddling the per-intention boundary
// (n = factor*k), and the per-intention lists of both paths must agree
// element-for-element — order included.
TEST(Differential, PrunedTieOrderAtSelectionBoundary) {
  SyntheticCorpus corpus = generate_corpus(corpus_options(16, 11));
  std::vector<Document> docs = analyze_corpus(corpus);
  const DocId base = static_cast<DocId>(docs.size());
  // Enough duplicates that the tie run crosses n for small k.
  for (DocId i = 0; i < 5; ++i) {
    docs.push_back(Document::analyze(base + i, corpus.posts[0].text));
  }
  PipelineOptions pruned_opt;
  pruned_opt.matcher.top_n_factor = 1;  // boundary exactly at k
  PipelineOptions exhaustive_opt = pruned_opt;
  exhaustive_opt.matcher.exhaustive_fallback = true;
  std::vector<Document> docs_copy = docs;
  RelatedPostPipeline p =
      RelatedPostPipeline::build(std::move(docs), pruned_opt);
  RelatedPostPipeline e =
      RelatedPostPipeline::build(std::move(docs_copy), exhaustive_opt);

  size_t tie_runs = 0;
  for (DocId q : {static_cast<DocId>(0), base, base + 2, base + 4}) {
    for (int k : {1, 2, 3, 10}) {
      expect_identical(p.find_related(q, k), e.find_related(q, k),
                       "boundary-tie q " + std::to_string(q) + " k " +
                           std::to_string(k));
    }
    // The per-intention lists themselves (before the cross-intention
    // merge) must match, and their equal-score runs must ascend by DocId.
    for (int c = 0; c < p.matcher().num_clusters(); ++c) {
      for (int n : {1, 2, 4, 16}) {
        auto got = p.matcher().match_single_intention(c, q, n);
        auto want = e.matcher().match_single_intention(c, q, n);
        expect_identical(got, want, "boundary-tie cluster " +
                                        std::to_string(c) + " n " +
                                        std::to_string(n));
        for (size_t i = 1; i < got.size(); ++i) {
          if (got[i].score == got[i - 1].score) {
            ++tie_runs;
            EXPECT_LT(got[i - 1].doc, got[i].doc)
                << "pruned equal-score run out of DocId order (cluster " << c
                << " n " << n << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(tie_runs, 0u);  // the duplicates must actually have tied
}

// The pruned path must report work honestly: across the sweep it scores
// at most as many units as the exhaustive path (it is a pruning, not a
// rescoring), and on at least one query it must actually abandon or skip
// something — otherwise the MaxScore machinery is dead code.
TEST(Differential, PrunedPathDoesStrictlyLessWork) {
  SharedOffline offline(kPosts, 11);
  MatcherOptions pruned;
  pruned.top_n_factor = 1;
  MatcherOptions exhaustive = pruned;
  exhaustive.exhaustive_fallback = true;
  RelatedPostPipeline p = offline.pipeline_with(pruned);
  RelatedPostPipeline e = offline.pipeline_with(exhaustive);
  for (DocId q = 0; q < kPosts; ++q) {
    expect_identical(p.find_related(q, 1), e.find_related(q, 1),
                     "work-check q " + std::to_string(q));
  }
  uint64_t pruned_scored =
      p.matcher().work_counters().units_scored.load(std::memory_order_relaxed);
  uint64_t exhaustive_scored =
      e.matcher().work_counters().units_scored.load(std::memory_order_relaxed);
  EXPECT_LE(pruned_scored, exhaustive_scored);
  EXPECT_LT(pruned_scored, exhaustive_scored)
      << "MaxScore never skipped a unit across " << kPosts
      << " k=1 queries — pruning is not engaging";
}

}  // namespace
}  // namespace ibseg
