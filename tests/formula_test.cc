// Hand-computed verification of the paper's formulas on tiny constructed
// inputs: Eq. 1 (Shannon diversity), Eq. 2 (coherence), Eq. 3 (depth),
// Eq. 4 (border score), Eq. 5/6 (segment weight vectors), Eq. 7/8 (term
// weights), Eq. 9 (relatedness score with probabilistic IDF).

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/feature_vector.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "one_cluster_index.h"
#include "seg/coherence.h"
#include "seg/diversity.h"

namespace ibseg {
namespace {

// Profile with tense = [2, 3, 0] (the worked example under Eq. 1) and no
// other CM occurrences.
CmProfile tense_230() {
  CmProfile p;
  p.add(CmKind::kTense, 0, 2.0);
  p.add(CmKind::kTense, 1, 3.0);
  return p;
}

TEST(Eq1, ShannonDiversityOfWorkedExample) {
  // DSb = [2,3,0], All = 5: H = -(2/5 log 2/5 + 3/5 log 3/5); normalized by
  // log(3) so the index stays below 1 for a 3-value CM (the paper's
  // requirement under Eq. 2).
  double h = -(0.4 * std::log(0.4) + 0.6 * std::log(0.6));
  double expected = h / std::log(3.0);
  EXPECT_NEAR(cm_diversity(tense_230(), CmKind::kTense,
                           DiversityIndex::kShannon),
              expected, 1e-12);
  EXPECT_LT(expected, 1.0);
}

TEST(Eq2, CoherenceAveragesOneMinusDiversityOverCms) {
  CmProfile p = tense_230();
  SegScoring scoring;  // all five CMs
  double div_tense =
      cm_diversity(p, CmKind::kTense, DiversityIndex::kShannon);
  // The other four CMs are absent -> diversity 0 -> contribute 1.0 each.
  double expected = ((1.0 - div_tense) + 4.0 * 1.0) / 5.0;
  EXPECT_NEAR(segment_coherence(p, scoring), expected, 1e-12);
}

TEST(Eq3, DepthFromCoherenceDrop) {
  // Left segment all-present, right all-past: merged tense = [3,3,0].
  CmProfile left;
  left.add(CmKind::kTense, 0, 3.0);
  CmProfile right;
  right.add(CmKind::kTense, 1, 3.0);
  SegScoring scoring;
  scoring.cm_mask = 1u << static_cast<int>(CmKind::kTense);

  double coh_l = segment_coherence(left, scoring);   // = 1
  double coh_r = segment_coherence(right, scoring);  // = 1
  CmProfile merged = left;
  merged.merge(right);
  double coh_m = segment_coherence(merged, scoring);
  double expected =
      (std::fabs(coh_l - coh_m) + std::fabs(coh_r - coh_m)) / (2.0 * coh_m);
  EXPECT_NEAR(border_depth(left, right, scoring), expected, 1e-12);
  EXPECT_DOUBLE_EQ(coh_l, 1.0);
  EXPECT_DOUBLE_EQ(coh_r, 1.0);
  // merged [3,3,0]: H = log 2, normalized by log 3.
  EXPECT_NEAR(coh_m, 1.0 - std::log(2.0) / std::log(3.0), 1e-12);
}

TEST(Eq4, ScoreIsAverageOfThreeTerms) {
  CmProfile left;
  left.add(CmKind::kTense, 0, 3.0);
  CmProfile right;
  right.add(CmKind::kTense, 1, 3.0);
  SegScoring scoring;
  double expected = (segment_coherence(left, scoring) +
                     segment_coherence(right, scoring) +
                     border_depth(left, right, scoring)) /
                    3.0;
  EXPECT_NEAR(border_score(left, right, scoring), expected, 1e-12);
}

TEST(Eq5And6, WeightVectorsOfKnownDocument) {
  // Two sentences. S0: "I installed it." (past, I + it, affirm, active,
  // verb+?); S1: "It works." (present, it, affirm, active).
  Document d = Document::analyze(0, "I installed it. It works.");
  ASSERT_EQ(d.num_units(), 2u);
  auto f = segment_feature_vector(d, 0, 1);  // first sentence only

  // Eq. 5 (first 14): within-segment per-CM distribution.
  // Sentence 0 tense: past only -> [0, 1, 0].
  EXPECT_DOUBLE_EQ(f[cm_feature_index(CmKind::kTense, 0)], 0.0);
  EXPECT_DOUBLE_EQ(f[cm_feature_index(CmKind::kTense, 1)], 1.0);
  // Subject: one "I" (1st) + one "it" (3rd) -> [0.5, 0, 0.5].
  EXPECT_DOUBLE_EQ(f[cm_feature_index(CmKind::kSubject, 0)], 0.5);
  EXPECT_DOUBLE_EQ(f[cm_feature_index(CmKind::kSubject, 2)], 0.5);

  // Eq. 6 (second 14): segment count / whole-document count.
  // Past tense: 1 of 1 in doc -> 1; present: 0 of 1 -> 0.
  int off = kNumCmFeatures;
  EXPECT_DOUBLE_EQ(f[off + cm_feature_index(CmKind::kTense, 1)], 1.0);
  EXPECT_DOUBLE_EQ(f[off + cm_feature_index(CmKind::kTense, 0)], 0.0);
  // "it" appears in both sentences (plus once in S0): S0 holds 1 of 2
  // third-person subjects... S1 contributes 1. So ratio = 1/2.
  EXPECT_NEAR(f[off + cm_feature_index(CmKind::kSubject, 2)], 0.5, 1e-12);
}

TEST(Eq7And8, MySqlStyleWeight) {
  // One unit with tf(a)=4, tf(b)=1; a second unit so averages exist.
  Vocabulary vocab;
  OneClusterIndex index(0.0);  // test the formula as printed
  TermVector u0;
  TermId a = vocab.intern("a");
  TermId b = vocab.intern("b");
  u0.add(a, 4.0);
  u0.add(b, 1.0);
  uint32_t unit0 = index.add_unit(u0);
  TermVector u1;
  u1.add(a, 1.0);
  u1.add(b, 1.0);
  index.add_unit(u1);
  index.finalize();

  // Denominator for unit0: sum of (log tf + 1) = (log4+1) + (log1+1),
  // times NU = (1-b) + b*unique/avg_unique with unique=2, avg=2 -> NU = 1.
  double denom = (std::log(4.0) + 1.0) + 1.0;
  EXPECT_NEAR(index.unit_norm(unit0), denom, 1e-12);
  EXPECT_NEAR(index.weight(a, unit0), (std::log(4.0) + 1.0) / denom, 1e-12);
  EXPECT_NEAR(index.weight(b, unit0), 1.0 / denom, 1e-12);
}

TEST(Eq8, NuPenaltyExactValue) {
  // unique(u0)=1, unique(u1)=3 -> avg 2; NU(u1) = 0.25 + 0.75*3/2 = 1.375.
  Vocabulary vocab;
  OneClusterIndex index(0.0);
  TermVector u0;
  u0.add(vocab.intern("x"), 1.0);
  index.add_unit(u0);
  TermVector u1;
  u1.add(vocab.intern("p"), 1.0);
  u1.add(vocab.intern("q"), 1.0);
  u1.add(vocab.intern("r"), 1.0);
  uint32_t unit1 = index.add_unit(u1);
  index.finalize();
  double nu = 0.25 + 0.75 * 3.0 / 2.0;
  EXPECT_NEAR(index.unit_norm(unit1), 3.0 * nu, 1e-12);
}

TEST(Eq9, RelatednessScoreComposition) {
  // Cluster of 3 segments; query shares term "t" (f_q = 2) with segment 0
  // only. scr = f_q * w(t, s0) * pidf where pidf uses |I|=3, |I^t|=1.
  Vocabulary vocab;
  OneClusterIndex index(0.0);
  TermId t = vocab.intern("t");
  TermVector s0;
  s0.add(t, 1.0);
  s0.add(vocab.intern("u"), 1.0);
  uint32_t unit0 = index.add_unit(s0);
  TermVector s1;
  s1.add(vocab.intern("v"), 1.0);
  index.add_unit(s1);
  TermVector s2;
  s2.add(vocab.intern("w"), 1.0);
  index.add_unit(s2);
  index.finalize();

  TermVector query;
  query.add(t, 2.0);
  auto hits = index.score(query);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].unit, unit0);
  double expected =
      2.0 * index.weight(t, unit0) * probabilistic_idf(3, 1);
  EXPECT_NEAR(hits[0].score, expected, 1e-12);
  // pidf(3,1) = log(3 - 1 + 0.5) / 1.5.
  EXPECT_NEAR(probabilistic_idf(3, 1), std::log(2.5) / 1.5, 1e-12);
}

// ----------------------------------------------- absolute golden values ----
// The tests above verify the formulas against re-derivations that share
// subexpressions with the implementation (index.weight() appears on both
// sides). The goldens below pin fully hand-computed literals instead, so
// any refactor of the scoring path — including the concurrent-serving
// work, which must not perturb ranking math — trips an exact numeric diff.

TEST(Eq8Golden, AbsoluteTermWeights) {
  // Cluster of three segments:
  //   u0: a^4 b      u1: a c d      u2: b^2 c
  // unique = [2, 3, 2], avg_unique = 7/3.
  // NU(u)      = 0.25 + 0.75 * unique / (7/3)
  // norm(u0)   = (ln4 + 2)          * NU(u0) = 3.0234771081427594
  // norm(u1)   = 3                  * NU(u1) = 3.6428571428571428
  // norm(u2)   = (ln2 + 2)          * NU(u2) = 2.4045956969285225
  Vocabulary vocab;
  OneClusterIndex index(0.0);  // the formula exactly as printed
  TermId a = vocab.intern("a"), b = vocab.intern("b"), c = vocab.intern("c"),
         d = vocab.intern("d");
  TermVector u0, u1, u2;
  u0.add(a, 4.0);
  u0.add(b, 1.0);
  u1.add(a, 1.0);
  u1.add(c, 1.0);
  u1.add(d, 1.0);
  u2.add(b, 2.0);
  u2.add(c, 1.0);
  uint32_t i0 = index.add_unit(u0);
  uint32_t i1 = index.add_unit(u1);
  uint32_t i2 = index.add_unit(u2);
  index.finalize();

  EXPECT_NEAR(index.unit_norm(i0), 3.0234771081427594, 1e-12);
  EXPECT_NEAR(index.unit_norm(i1), 3.6428571428571428, 1e-12);
  EXPECT_NEAR(index.unit_norm(i2), 2.4045956969285225, 1e-12);
  // w(t, u) = (ln tf + 1) / norm(u):
  EXPECT_NEAR(index.weight(a, i0), 0.78925497887620100, 1e-12);
  EXPECT_NEAR(index.weight(b, i0), 0.33074502112379911, 1e-12);
  EXPECT_NEAR(index.weight(a, i1), 0.27450980392156865, 1e-12);
  EXPECT_NEAR(index.weight(b, i2), 0.70412967249449210, 1e-12);
}

TEST(Eq9Golden, AbsoluteRelatednessScores) {
  // Same cluster as Eq8Golden; query bag q = {a: 2, b: 1}.
  // pidf(3, 2) = ln(1.5) / 2.5 = 0.16218604324326574
  // scr(q,u0) = 2 w(a,u0) pidf + 1 w(b,u0) pidf = 0.30965451056643595
  // scr(q,u1) = 2 w(a,u1) pidf                  = 0.08904331785904787
  // scr(q,u2) = 1 w(b,u2) pidf                  = 0.11420000551205824
  Vocabulary vocab;
  OneClusterIndex index(0.0);
  TermId a = vocab.intern("a"), b = vocab.intern("b"), c = vocab.intern("c"),
         d = vocab.intern("d");
  TermVector u0, u1, u2;
  u0.add(a, 4.0);
  u0.add(b, 1.0);
  u1.add(a, 1.0);
  u1.add(c, 1.0);
  u1.add(d, 1.0);
  u2.add(b, 2.0);
  u2.add(c, 1.0);
  index.add_unit(u0);
  index.add_unit(u1);
  index.add_unit(u2);
  index.finalize();

  TermVector query;
  query.add(a, 2.0);
  query.add(b, 1.0);
  auto hits = index.score(query);
  keep_top_n(hits, hits.size());
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].unit, 0u);
  EXPECT_NEAR(hits[0].score, 0.30965451056643595, 1e-12);
  EXPECT_EQ(hits[1].unit, 2u);
  EXPECT_NEAR(hits[1].score, 0.11420000551205824, 1e-12);
  EXPECT_EQ(hits[2].unit, 1u);
  EXPECT_NEAR(hits[2].score, 0.08904331785904787, 1e-12);
}

}  // namespace
}  // namespace ibseg
