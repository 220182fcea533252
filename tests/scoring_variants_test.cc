// Tests for the pluggable segment comparators (paper Sec. 7: "any text
// comparison, e.g. ... IR techniques may be employed"): BM25 and the
// Jelinek-Mercer query-likelihood model next to the paper's Eq. 9, plus
// the external-query entry point.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/intention_clusters.h"
#include "index/fulltext_matcher.h"
#include "index/intention_matcher.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "one_cluster_index.h"
#include "seg/segmenter.h"

namespace ibseg {
namespace {

TermVector tv(Vocabulary& vocab,
              std::initializer_list<std::pair<const char*, double>> terms) {
  TermVector out;
  for (const auto& [term, weight] : terms) out.add(vocab.intern(term), weight);
  return out;
}

struct SmallIndex {
  Vocabulary vocab;
  OneClusterIndex index;
  uint32_t strong = 0;  // shares 2 query terms
  uint32_t weak = 0;    // shares 1
};

SmallIndex make_index() {
  SmallIndex s;
  s.strong = s.index.add_unit(tv(s.vocab, {{"printer", 2.0}, {"ink", 1.0},
                                           {"tray", 1.0}}));
  s.weak = s.index.add_unit(tv(s.vocab, {{"printer", 1.0}, {"fan", 2.0}}));
  s.index.add_unit(tv(s.vocab, {{"router", 1.0}, {"wifi", 1.0}}));
  s.index.add_unit(tv(s.vocab, {{"battery", 2.0}, {"plug", 1.0}}));
  s.index.finalize();
  return s;
}

class ScorerCase : public ::testing::TestWithParam<ScoringFunction> {};

TEST_P(ScorerCase, RanksStrongerOverlapHigher) {
  SmallIndex s = make_index();
  ScoringOptions options;
  options.function = GetParam();
  TermVector query = tv(s.vocab, {{"printer", 1.0}, {"ink", 1.0}});
  auto hits = s.index.score(query, options);
  keep_top_n(hits, 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].unit, s.strong);
  EXPECT_EQ(hits[1].unit, s.weak);
  for (const ScoredUnit& h : hits) EXPECT_GT(h.score, 0.0);
}

TEST_P(ScorerCase, NoOverlapNoHits) {
  SmallIndex s = make_index();
  ScoringOptions options;
  options.function = GetParam();
  auto hits = s.index.score(tv(s.vocab, {{"ghost", 1.0}}), options);
  EXPECT_TRUE(hits.empty());
}

INSTANTIATE_TEST_SUITE_P(AllScorers, ScorerCase,
                         ::testing::Values(ScoringFunction::kPaperTfIdf,
                                           ScoringFunction::kBm25,
                                           ScoringFunction::kQueryLikelihood));

TEST(Bm25, HandComputedSingleTerm) {
  Vocabulary vocab;
  OneClusterIndex index;
  TermVector u0;
  TermId t = vocab.intern("t");
  u0.add(t, 3.0);
  u0.add(vocab.intern("x"), 1.0);  // len 4
  uint32_t unit0 = index.add_unit(u0);
  TermVector u1;
  u1.add(vocab.intern("y"), 4.0);  // len 4
  index.add_unit(u1);
  index.finalize();
  ASSERT_DOUBLE_EQ(index.collection().avg_unit_length, 4.0);

  ScoringOptions options;
  options.function = ScoringFunction::kBm25;
  TermVector q;
  q.add(t, 1.0);
  auto hits = index.score(q, options);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].unit, unit0);
  // idf = log(1 + (2 - 1 + 0.5)/(1 + 0.5)) = log(2);
  // tf-part = 3*(1.2+1)/(3 + 1.2*(1 - 0.75 + 0.75*4/4)) = 6.6/4.2.
  double expected = std::log(2.0) * (3.0 * 2.2) / (3.0 + 1.2);
  EXPECT_NEAR(hits[0].score, expected, 1e-12);
}

TEST(QueryLikelihood, HandComputedSingleTerm) {
  Vocabulary vocab;
  OneClusterIndex index;
  TermId t = vocab.intern("t");
  TermVector u0;
  u0.add(t, 2.0);
  u0.add(vocab.intern("x"), 2.0);  // len 4, p(t|u0) = 0.5
  uint32_t unit0 = index.add_unit(u0);
  TermVector u1;
  u1.add(vocab.intern("y"), 4.0);  // len 4
  index.add_unit(u1);
  index.finalize();
  // Collection: len 8, ctf(t) = 2 -> p(t|C) = 0.25.
  ScoringOptions options;
  options.function = ScoringFunction::kQueryLikelihood;
  options.lm_lambda = 0.5;
  TermVector q;
  q.add(t, 2.0);
  auto hits = index.score(q, options);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].unit, unit0);
  double expected = 2.0 * std::log(1.0 + (0.5 * 0.5) / (0.5 * 0.25));
  EXPECT_NEAR(hits[0].score, expected, 1e-12);
}

TEST(IndexStats, LengthsAndCollectionTf) {
  SmallIndex s = make_index();
  EXPECT_DOUBLE_EQ(s.index.index.unit_stats(s.strong).length, 4.0);
  const ClusterCollectionStats& collection = s.index.collection();
  EXPECT_DOUBLE_EQ(collection.cf_of(s.vocab.find("printer")), 3.0);
  EXPECT_DOUBLE_EQ(collection.collection_length, 4.0 + 3.0 + 2.0 + 3.0);
  EXPECT_NEAR(collection.avg_unit_length, 3.0, 1e-12);
}

// --------------------------------------------------------- external query ----

TEST(ExternalQuery, FindsRelatedWithoutIngesting) {
  // Corpus of topic pairs, as in index_test.
  std::vector<std::string> topics = {"printer", "printer", "router",
                                     "router"};
  std::vector<Document> docs;
  for (size_t i = 0; i < topics.size(); ++i) {
    docs.push_back(Document::analyze(
        static_cast<DocId>(i),
        "I have a fast laptop and it runs the usual setup. "
        "Can you replace the " + topics[i] + "? "
        "What should I do about the " + topics[i] + "?"));
  }
  std::vector<Segmentation> segs(docs.size());
  std::vector<int> labels;
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {1}};
    labels.push_back(0);
    labels.push_back(1);
  }
  auto clustering = IntentionClustering::from_labels(docs, segs, labels, 2);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  size_t segments_before = matcher.num_segments();

  Document external = Document::analyze(
      999, "My machine is mostly fine. Should I replace the router today?");
  Segmentation ext_seg{external.num_units(), {1}};
  auto related = matcher.find_related_external(
      external, ext_seg, clustering.centroids(), vocab, 2);
  ASSERT_FALSE(related.empty());
  EXPECT_TRUE(related[0].doc == 2u || related[0].doc == 3u)
      << "router posts should win, got " << related[0].doc;
  // Nothing ingested.
  EXPECT_EQ(matcher.num_segments(), segments_before);
  EXPECT_TRUE(matcher.find_related(999, 2).empty());
}

// ------------------------------------- per-intention relatedness golden ----

// Hand-computed end-to-end golden for Algorithm 1 + Algorithm 2 over two
// intention clusters. Number tokens are interned verbatim (no stemming, no
// stopword filtering), so the exact term bags — and therefore every Eq. 8
// weight and Eq. 9 score — are derivable on paper:
//
//   cluster 0 (first sentence of each doc):
//     d0: {11:4, 12:1}   d1: {11:1, 13:1, 14:1}   d2: {12:2, 13:1}
//   cluster 1 (second sentence):
//     d0: {21:1, 22:1}   d1: {21:2, 23:1}         d2: {22:1, 24:1}
//
// Querying d0 (min_norm_fraction = 0, i.e. the formulas as printed):
//   cluster 0, pidf(3,2) = ln(1.5)/2.5:
//     scr(d1) = 2 * (1/3.6428571428571428) * pidf = 0.08904331785904787
//     scr(d2) = 1 * ((ln2+1)/2.4045956969285225) * pidf
//             = 0.11420000551205824
//   cluster 1 (all NU = 1):
//     scr(d1) = 1 * ((ln2+1)/(ln2+2)) * pidf = 0.10196429063576626
//     scr(d2) = 1 * (1/2) * pidf             = 0.08109302162163287
//   Algorithm 2 sums: d2 = 0.19529302713369112 > d1 = 0.19100760849481413.
//
// The pinned literals mean any refactor of the scoring or serving path
// that perturbs ranking math — even in the 3rd decimal of a tie-breaking
// sum — fails here with an exact numeric diff.
TEST(PerIntentionGolden, HandComputedAlgorithm1And2) {
  std::vector<std::string> texts = {
      "11 11 11 11 12. 21 22.",
      "11 13 14. 21 21 23.",
      "12 12 13. 22 24.",
  };
  std::vector<Document> docs;
  std::vector<Segmentation> segs;
  std::vector<int> labels;
  for (size_t i = 0; i < texts.size(); ++i) {
    docs.push_back(Document::analyze(static_cast<DocId>(i), texts[i]));
    ASSERT_EQ(docs[i].num_units(), 2u) << texts[i];
    segs.push_back(Segmentation{docs[i].num_units(), {1}});
    labels.push_back(0);
    labels.push_back(1);
  }
  auto clustering = IntentionClustering::from_labels(docs, segs, labels, 2);
  Vocabulary vocab;
  MatcherOptions options;
  options.min_norm_fraction = 0.0;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab, options);

  // Query = doc 0's cluster-0 unit, raw tfs {11:4, 12:1}.
  //   d1: 4 * w(11,d1) * pidf(3,2) = 4 * 0.27450980392156865 * log(1.5)/2.5
  //   d2: 1 * w(12,d2) * pidf(3,2) = 0.70412967249449210 * log(1.5)/2.5
  auto c0 = matcher.match_single_intention(0, 0, 4);
  ASSERT_EQ(c0.size(), 2u);
  EXPECT_EQ(c0[0].doc, 1u);
  EXPECT_NEAR(c0[0].score, 0.17808663571809574, 1e-12);
  EXPECT_EQ(c0[1].doc, 2u);
  EXPECT_NEAR(c0[1].score, 0.11420000551205824, 1e-12);

  auto c1 = matcher.match_single_intention(1, 0, 4);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0].doc, 1u);
  EXPECT_NEAR(c1[0].score, 0.10196429063576626, 1e-12);
  EXPECT_EQ(c1[1].doc, 2u);
  EXPECT_NEAR(c1[1].score, 0.08109302162163287, 1e-12);

  // Algorithm 2 sums each document's per-cluster scores:
  //   d1: 0.17808663571809574 + 0.10196429063576626
  //   d2: 0.11420000551205824 + 0.08109302162163287
  auto related = matcher.find_related(0, 2);
  ASSERT_EQ(related.size(), 2u);
  EXPECT_EQ(related[0].doc, 1u);
  EXPECT_NEAR(related[0].score, 0.28005092635386200, 1e-12);
  EXPECT_EQ(related[1].doc, 2u);
  EXPECT_NEAR(related[1].score, 0.19529302713369112, 1e-12);
}

}  // namespace
}  // namespace ibseg
