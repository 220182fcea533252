// Unit tests for src/index: inverted index and Eq. 7/8 weighting, Eq. 9
// scoring, Algorithm 1/2 matching and the FullText baseline.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/intention_clusters.h"
#include "index/fulltext_matcher.h"
#include "index/intention_matcher.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "one_cluster_index.h"
#include "seg/document.h"

namespace ibseg {
namespace {

TermVector tv(Vocabulary& vocab,
              std::initializer_list<std::pair<const char*, double>> terms) {
  TermVector out;
  for (const auto& [term, weight] : terms) out.add(vocab.intern(term), weight);
  return out;
}

// --------------------------------------------------------- inverted index ----

TEST(InvertedIndex, PostingsAndDf) {
  Vocabulary vocab;
  OneClusterIndex index;
  index.add_unit(tv(vocab, {{"a", 2.0}, {"b", 1.0}}));
  index.add_unit(tv(vocab, {{"a", 1.0}}));
  index.finalize();
  EXPECT_EQ(index.num_units(), 2u);
  EXPECT_EQ(index.df(vocab.find("a")), 2u);
  EXPECT_EQ(index.df(vocab.find("b")), 1u);
  EXPECT_TRUE(index.postings(vocab.intern("zzz")).empty());
}

TEST(InvertedIndex, WeightFollowsEq7Shape) {
  Vocabulary vocab;
  OneClusterIndex index(0.0);
  uint32_t u0 = index.add_unit(tv(vocab, {{"a", 4.0}, {"b", 1.0}}));
  index.add_unit(tv(vocab, {{"a", 1.0}, {"b", 1.0}}));
  index.finalize();
  // Numerator log(tf)+1; higher-tf term weighs more within the same unit.
  double wa = index.weight(vocab.find("a"), u0);
  double wb = index.weight(vocab.find("b"), u0);
  EXPECT_GT(wa, wb);
  EXPECT_NEAR(wa / wb, std::log(4.0) + 1.0, 1e-9);
}

TEST(InvertedIndex, NormFloorBoundsShortUnits) {
  Vocabulary vocab;
  OneClusterIndex index;  // default floor = collection average
  uint32_t tiny = index.add_unit(tv(vocab, {{"a", 1.0}}));
  uint32_t big = index.add_unit(tv(vocab, {
      {"a", 1.0}, {"b", 1.0}, {"c", 1.0}, {"d", 1.0},
      {"e", 1.0}, {"f", 1.0}, {"g", 1.0}, {"h", 1.0}}));
  index.finalize();
  // The tiny unit's norm is floored to at least the collection average, so
  // its term weights cannot dwarf the big unit's.
  EXPECT_GE(index.unit_norm(tiny), index.unit_norm(big) * 0.5);
}

TEST(InvertedIndex, NuPenalizesManyUniqueTerms) {
  Vocabulary vocab;
  OneClusterIndex index(0.0);
  uint32_t small = index.add_unit(tv(vocab, {{"a", 1.0}, {"b", 1.0}}));
  uint32_t wide = index.add_unit(tv(vocab, {{"a", 1.0},
                                            {"b", 1.0},
                                            {"c", 1.0},
                                            {"d", 1.0},
                                            {"e", 1.0},
                                            {"f", 1.0}}));
  index.finalize();
  EXPECT_LT(index.unit_norm(small), index.unit_norm(wide));
}

// ---------------------------------------------------------------- scoring ----

TEST(Scoring, ProbabilisticIdfShape) {
  // Rare terms weigh more; ubiquitous terms floor at 0.
  EXPECT_GT(probabilistic_idf(100, 1), probabilistic_idf(100, 10));
  EXPECT_DOUBLE_EQ(probabilistic_idf(100, 0), 0.0);
  EXPECT_DOUBLE_EQ(probabilistic_idf(0, 5), 0.0);
  EXPECT_GE(probabilistic_idf(10, 10), 0.0);  // floored, not negative
}

TEST(Scoring, ScoreUnitsRanksSharedTermsHigher) {
  Vocabulary vocab;
  OneClusterIndex index;
  uint32_t match2 = index.add_unit(tv(vocab, {{"printer", 2.0}, {"ink", 1.0}}));
  uint32_t match1 = index.add_unit(tv(vocab, {{"printer", 1.0}, {"fan", 1.0}}));
  index.add_unit(tv(vocab, {{"router", 1.0}, {"wifi", 1.0}}));
  index.finalize();
  TermVector query = tv(vocab, {{"printer", 1.0}, {"ink", 1.0}});
  auto hits = index.score(query);
  keep_top_n(hits, 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].unit, match2);
  EXPECT_EQ(hits[1].unit, match1);
}

TEST(Scoring, KeepTopNTruncatesAndSortsDeterministically) {
  std::vector<ScoredUnit> hits = {{3, 1.0}, {1, 2.0}, {2, 1.0}, {0, 3.0}};
  keep_top_n(hits, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].unit, 0u);
  EXPECT_EQ(hits[1].unit, 1u);
  EXPECT_EQ(hits[2].unit, 2u);  // tie with unit 3 broken by smaller id
}

TEST(Scoring, NoSharedTermsNoHits) {
  Vocabulary vocab;
  OneClusterIndex index;
  index.add_unit(tv(vocab, {{"alpha", 1.0}}));
  index.finalize();
  auto hits = index.score(tv(vocab, {{"beta", 1.0}}));
  EXPECT_TRUE(hits.empty());
}

// ----------------------------------------------------- intention matcher ----

// Corpus where doc i's "question" mentions a per-pair topic so that pairs
// (0,1), (2,3), ... are related.
std::vector<Document> paired_corpus() {
  std::vector<std::string> topics = {"printer", "printer", "router",
                                     "router",  "battery", "battery"};
  std::vector<Document> docs;
  for (size_t i = 0; i < topics.size(); ++i) {
    std::string text =
        "I have a fast laptop and it runs the usual setup. "
        "The machine works with a standard cable most days. "
        "Can you replace the " + topics[i] + "? " +
        "What should I do about the " + topics[i] + "?";
    docs.push_back(Document::analyze(static_cast<DocId>(i), text));
  }
  return docs;
}

IntentionClustering two_cluster(const std::vector<Document>& docs) {
  std::vector<Segmentation> segs(docs.size());
  std::vector<int> labels;
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = Segmentation{docs[d].num_units(), {2}};
    labels.push_back(0);  // description
    labels.push_back(1);  // questions
  }
  return IntentionClustering::from_labels(docs, segs, labels, 2);
}

TEST(IntentionMatcher, FindsTopicPartner) {
  auto docs = paired_corpus();
  auto clustering = two_cluster(docs);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  EXPECT_EQ(matcher.num_clusters(), 2);
  for (DocId q = 0; q < docs.size(); ++q) {
    auto related = matcher.find_related(q, 1);
    ASSERT_FALSE(related.empty()) << "query " << q;
    DocId partner = (q % 2 == 0) ? q + 1 : q - 1;
    EXPECT_EQ(related[0].doc, partner) << "query " << q;
  }
}

TEST(IntentionMatcher, QueryExcludedFromResults) {
  auto docs = paired_corpus();
  auto clustering = two_cluster(docs);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  auto related = matcher.find_related(0, 10);
  for (const ScoredDoc& sd : related) EXPECT_NE(sd.doc, 0u);
}

TEST(IntentionMatcher, RespectsK) {
  auto docs = paired_corpus();
  auto clustering = two_cluster(docs);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  EXPECT_LE(matcher.find_related(0, 2).size(), 2u);
  EXPECT_TRUE(matcher.find_related(0, 0).empty());
}

TEST(IntentionMatcher, UnknownQueryReturnsEmpty) {
  auto docs = paired_corpus();
  auto clustering = two_cluster(docs);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  EXPECT_TRUE(matcher.find_related(999, 5).empty());
}

TEST(IntentionMatcher, SingleIntentionListScoresDescend) {
  auto docs = paired_corpus();
  auto clustering = two_cluster(docs);
  Vocabulary vocab;
  auto matcher = IntentionMatcher::build(docs, clustering, vocab);
  auto list = matcher.match_single_intention(1, 0, 5);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LE(list[i].score, list[i - 1].score);
  }
}

// ----------------------------------------------------- fulltext matcher ----

TEST(FullTextMatcher, FindsLexicalNeighbors) {
  auto docs = paired_corpus();
  Vocabulary vocab;
  auto matcher = FullTextMatcher::build(docs, vocab);
  EXPECT_EQ(matcher.num_docs(), docs.size());
  auto related = matcher.find_related(2, 1);
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].doc, 3u);
}

TEST(FullTextMatcher, ExcludesQueryAndHonorsK) {
  auto docs = paired_corpus();
  Vocabulary vocab;
  auto matcher = FullTextMatcher::build(docs, vocab);
  auto related = matcher.find_related(0, 3);
  EXPECT_LE(related.size(), 3u);
  for (const ScoredDoc& sd : related) EXPECT_NE(sd.doc, 0u);
  EXPECT_TRUE(matcher.find_related(42, 3).empty());
}

}  // namespace
}  // namespace ibseg
