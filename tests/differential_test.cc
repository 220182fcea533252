// Differential harness for the cached, kernel-scored and scattered query
// paths. The serving-layer result cache, the dense per-intention scoring
// kernel and the concurrent scatter legs are only shippable because each
// is provably identical —
// ranked lists AND scores, bit for bit — to the uncached, map-scored
// reference execution (the Oracle, tests/oracle.h). These tests are
// property-style: seeded random corpora from src/datagen, every document
// as the reference query, multiple k, with interleaved ingests exercising
// the cache's epoch invalidation. Registered under the
// `differential` ctest label; scripts/reproduce.sh IBSEG_DIFF_CHECK=1
// runs the label under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
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

  /// Variant with full control of the matcher options (the kernel vs
  /// reference sweeps mutate top_n_factor / score_threshold /
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

// ------------------------------------- kernel vs reference selection ----

// The dense kernel (score_units_maxscore, the default per-intention path)
// must be indistinguishable — bit for bit — from the map-based reference
// path (exhaustive_fallback). The sweep crosses random corpora, every
// document as the query, k below/at/above the per-intention list length,
// top_n_factor (which sets n = factor*k and therefore where the selection
// boundary falls), and all three scoring functions. Any divergence — a
// doc kept by one path and not the other, or a score differing in the
// last ulp — fails.
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
          // k sweep: tiny heaps, mid, the corpus size, and k far beyond
          // the corpus (selection must keep everything without dropping
          // a single positive score).
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
// rule in the kernel: keep-on-equality against a static bar. Both paths
// must keep the exact same set.
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

// The kernel must stay exact across interleaved ingests: every add_post
// re-seals the flat postings and changes the unit norms, and a kernel
// reading a stale arena or stale per-unit operands would drift. Ingest
// into both pipelines in lockstep and compare the full query sweep after
// every post.
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

// Selection-boundary ties are where a selection bug hides best: when the
// heap is full and a candidate's score EQUALS the current worst kept
// score, it may only displace it with a smaller DocId. Duplicated post
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
                << "kernel equal-score run out of DocId order (cluster " << c
                << " n " << n << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(tie_runs, 0u);  // the duplicates must actually have tied
}

// ------------------------------------------ kernel vs map reference ----

// The tf values whose encoding or log path differs: 1 (most real
// postings), 2, the last (255) and first-past (256) log-table entries,
// 300, sub-unit and non-integral tf (raw-bits escape; 0.1 also makes the
// paper weight negative), and 2^63 — integral, but past the varint range,
// so it takes the raw-bits escape too.
constexpr double kEdgeTfs[] = {1.0, 2.0,  255.0, 256.0,
                               300.0, 0.1, 2.5,  9223372036854775808.0};

TermVector edge_bag(std::mt19937& rng) {
  std::uniform_int_distribution<int> num_terms(1, 6);
  std::uniform_int_distribution<TermId> term(0, 11);
  std::uniform_int_distribution<size_t> tf(0, std::size(kEdgeTfs) - 1);
  TermVector v;
  for (int i = num_terms(rng); i > 0; --i) {
    TermId t = term(rng);
    if (v.weight(t) == 0.0) v.add(t, kEdgeTfs[tf(rng)]);
  }
  return v;
}

// The matcher's reference selection: map-based scores, then exclude,
// threshold, (score desc, doc asc) order and the top-n cut.
std::vector<ScoredUnit> reference_select(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude, size_t n,
    double threshold, ScoreStats* stats) {
  std::vector<ScoredUnit> hits =
      score_units_counted(index, query, options, global, stats);
  std::erase_if(hits, [&](const ScoredUnit& h) {
    return unit_doc[h.unit] == exclude ||
           (threshold > 0.0 && h.score < threshold);
  });
  std::sort(hits.begin(), hits.end(),
            [&](const ScoredUnit& a, const ScoredUnit& b) {
              if (a.score != b.score) return a.score > b.score;
              return unit_doc[a.unit] < unit_doc[b.unit];
            });
  if (threshold <= 0.0 && hits.size() > n) hits.resize(n);
  return hits;
}

// score_units_maxscore against reference_select, compared as bit patterns,
// on bags built from the edge tf values: all three scoring functions, top-n
// and threshold mode, local and cross-shard statistics (a board that also
// holds units living on another shard), with and without an excluded doc.
// Duplicate units force exact score ties, and doc ids run against unit ids
// so the tie order is the DocId order, not the insertion order.
TEST(Differential, KernelBitExactAgainstMapReference) {
  std::mt19937 rng(2024);
  std::vector<TermVector> units;
  for (int u = 0; u < 40; ++u) {
    units.push_back(edge_bag(rng));
    if (u % 8 == 0) units.push_back(units.back());
  }
  InvertedIndex index;
  for (const TermVector& v : units) index.add_unit(v);
  index.finalize();
  std::vector<uint32_t> unit_doc(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    unit_doc[u] = static_cast<uint32_t>(5000 - 3 * u);
  }
  GlobalIndexStats board(1, index.min_norm_fraction);
  for (const TermVector& v : units) board.append(0, v, false);
  for (int u = 0; u < 25; ++u) board.append(0, edge_bag(rng), false);
  board.refresh(0);
  std::shared_ptr<const ClusterCollectionStats> global = board.cluster(0);

  std::vector<TermVector> queries;
  for (int q = 0; q < 8; ++q) queries.push_back(edge_bag(rng));
  queries.back().add(99, 1.0);  // a term no unit holds

  size_t compared = 0;
  for (ScoringFunction fn :
       {ScoringFunction::kPaperTfIdf, ScoringFunction::kBm25,
        ScoringFunction::kQueryLikelihood}) {
    ScoringOptions options;
    options.function = fn;
    for (const ClusterCollectionStats* stats : {
             static_cast<const ClusterCollectionStats*>(nullptr),
             global.get()}) {
      for (const TermVector& query : queries) {
        std::vector<ScoredUnit> all = reference_select(
            index, query, options, stats, unit_doc, IntentionMatcher::kNoDocId,
            units.size(), 0.0, nullptr);
        // Thresholds: keep every positive score; and exactly the third
        // best score, so keep-on-equality is exercised.
        std::vector<double> thresholds = {0.0, 1e-300};
        if (all.size() >= 3) thresholds.push_back(all[2].score);
        for (uint32_t exclude : {IntentionMatcher::kNoDocId, unit_doc[8]}) {
          for (double threshold : thresholds) {
            for (size_t n : {size_t{1}, size_t{3}, size_t{10}, size_t{100}}) {
              ScoreStats want_stats;
              ScoreStats got_stats;
              std::vector<ScoredUnit> want =
                  reference_select(index, query, options, stats, unit_doc,
                                   exclude, n, threshold, &want_stats);
              std::vector<ScoredUnit> got = score_units_maxscore(
                  index, query, options, stats, unit_doc, exclude, n,
                  threshold, &got_stats);
              const std::string what =
                  "fn " + std::to_string(static_cast<int>(fn)) +
                  (stats != nullptr ? " global" : " local") + " exclude " +
                  std::to_string(exclude) + " threshold " +
                  std::to_string(threshold) + " n " + std::to_string(n);
              EXPECT_EQ(got_stats.units_scored, want_stats.units_scored)
                  << what;
              ASSERT_EQ(got.size(), want.size()) << what;
              for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].unit, want[i].unit) << what << " rank " << i;
                EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                          std::bit_cast<uint64_t>(want[i].score))
                    << what << " rank " << i;
              }
              compared += want.size();
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);  // the sweep must compare real hits
}

// A finalized index over edge bags, its doc ids running against its unit
// ids.
struct EdgeBoard {
  InvertedIndex index;
  std::vector<uint32_t> unit_doc;
};

std::vector<std::unique_ptr<EdgeBoard>> edge_boards(
    std::mt19937& rng, std::initializer_list<int> sizes) {
  std::vector<std::unique_ptr<EdgeBoard>> boards;
  for (int size : sizes) {
    auto board = std::make_unique<EdgeBoard>();
    for (int u = 0; u < size; ++u) {
      board->index.add_unit(edge_bag(rng));
      board->unit_doc.push_back(static_cast<uint32_t>(9000 - 2 * u));
    }
    board->index.finalize();
    boards.push_back(std::move(board));
  }
  return boards;
}

// Ranks at which `got` and `want` differ in unit or in score bits; each
// rank one list lacks counts as a difference.
size_t bit_differences(const std::vector<ScoredUnit>& got,
                       const std::vector<ScoredUnit>& want) {
  size_t diffs = std::max(got.size(), want.size()) -
                 std::min(got.size(), want.size());
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    diffs += got[i].unit != want[i].unit ||
             std::bit_cast<uint64_t>(got[i].score) !=
                 std::bit_cast<uint64_t>(want[i].score);
  }
  return diffs;
}

// The kernel's per-thread arrays outlive a call. On one thread, calls that
// alternate between boards of different sizes — and between two boards of
// the same size but different postings — must each answer as if the
// arrays were fresh: no score, unit operand or admitted term of an earlier
// call may leak into a later one.
TEST(Differential, KernelWorkspaceReusedAcrossIndexSizes) {
  std::mt19937 rng(77);
  const auto boards = edge_boards(rng, {60, 4, 60, 1, 23});
  std::vector<TermVector> queries;
  for (int q = 0; q < 10; ++q) queries.push_back(edge_bag(rng));

  size_t compared = 0;
  for (int round = 0; round < 2; ++round) {
    for (const TermVector& query : queries) {
      for (ScoringFunction fn :
           {ScoringFunction::kPaperTfIdf, ScoringFunction::kBm25,
            ScoringFunction::kQueryLikelihood}) {
        ScoringOptions options;
        options.function = fn;
        for (size_t b = 0; b < boards.size(); ++b) {
          const EdgeBoard& board = *boards[b];
          for (double threshold : {0.0, 1e-300}) {
            std::vector<ScoredUnit> want = reference_select(
                board.index, query, options, nullptr, board.unit_doc,
                IntentionMatcher::kNoDocId, 5, threshold, nullptr);
            std::vector<ScoredUnit> got = score_units_maxscore(
                board.index, query, options, nullptr, board.unit_doc,
                IntentionMatcher::kNoDocId, 5, threshold);
            EXPECT_EQ(bit_differences(got, want), 0u)
                << "round " << round << " fn " << static_cast<int>(fn)
                << " board " << b << " threshold " << threshold;
            compared += want.size();
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500u);  // the sweep must compare real hits
}

// Scatter legs call the kernel from several pool threads at once. Four
// threads, each sweeping the same boards, queries and scoring functions
// in its own order under local and cross-shard statistics, must each
// reproduce the serially computed reference bit for bit.
TEST(Differential, KernelConcurrentCallsMatchSerialReference) {
  std::mt19937 rng(91);
  const auto boards = edge_boards(rng, {50, 7, 31});
  GlobalIndexStats stats_board(1, boards[0]->index.min_norm_fraction);
  for (int u = 0; u < 90; ++u) stats_board.append(0, edge_bag(rng), false);
  stats_board.refresh(0);
  std::shared_ptr<const ClusterCollectionStats> global =
      stats_board.cluster(0);
  std::vector<TermVector> queries;
  for (int q = 0; q < 6; ++q) queries.push_back(edge_bag(rng));

  struct Call {
    const EdgeBoard* board;
    const TermVector* query;
    ScoringOptions options;
    const ClusterCollectionStats* global;
    double threshold;
    std::vector<ScoredUnit> want;
  };
  std::vector<Call> calls;
  size_t compared = 0;
  for (const auto& board : boards) {
    for (const TermVector& query : queries) {
      for (ScoringFunction fn :
           {ScoringFunction::kPaperTfIdf, ScoringFunction::kBm25,
            ScoringFunction::kQueryLikelihood}) {
        for (const ClusterCollectionStats* stats : {
                 static_cast<const ClusterCollectionStats*>(nullptr),
                 global.get()}) {
          for (double threshold : {0.0, 1e-300}) {
            Call call{board.get(), &query, {}, stats, threshold, {}};
            call.options.function = fn;
            call.want = reference_select(
                board->index, query, call.options, stats, board->unit_doc,
                IntentionMatcher::kNoDocId, 4, threshold, nullptr);
            compared += call.want.size();
            calls.push_back(std::move(call));
          }
        }
      }
    }
  }
  ASSERT_GT(compared, 300u);  // the sweep must compare real hits

  constexpr int kThreads = 4;
  std::atomic<size_t> diffs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&calls, &diffs, t] {
      std::vector<size_t> order(calls.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(),
                   std::mt19937(static_cast<uint32_t>(t)));
      for (int rep = 0; rep < 5; ++rep) {
        for (size_t i : order) {
          const Call& call = calls[i];
          diffs += bit_differences(
              score_units_maxscore(call.board->index, *call.query,
                                   call.options, call.global,
                                   call.board->unit_doc,
                                   IntentionMatcher::kNoDocId, 4,
                                   call.threshold),
              call.want);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(diffs.load(), 0u);
}

// The paper weight reads log(tf) from a table for small integral tf. Each
// entry must be the very double a run-time std::log call returns.
TEST(Differential, SmallTfLogTableEqualsRuntimeLog) {
  const double* table = small_tf_log_table();
  for (uint32_t i = 1; i < kSmallTfLogs; ++i) {
    volatile double tf = static_cast<double>(i);  // defeat constant folding
    const double want = std::log(tf);
    EXPECT_EQ(std::bit_cast<uint64_t>(table[i]), std::bit_cast<uint64_t>(want))
        << "tf " << i;
  }
}

}  // namespace
}  // namespace ibseg
