// Unit tests for src/seg: segmentation model, document analysis, diversity
// indices, coherence/depth scoring (paper Eqs. 1-4) and the border
// selection strategies of Sec. 5.3.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "seg/border_strategies.h"
#include "seg/coherence.h"
#include "seg/diversity.h"
#include "seg/document.h"
#include "seg/segmentation.h"
#include "seg/segmenter.h"
#include "seg/texttiling.h"

namespace ibseg {
namespace {

// A post with two crisply different intentions: present-tense first-person
// description, then past-tense effort report, then questions.
const char* kThreeIntentPost =
    "I have a new laptop with a printer and a scanner. "
    "My system runs with a wireless router and it has a fast drive. "
    "It is a compact model and the printer connects to the scanner. "
    "I called the support and they suggested a reset. "
    "I replaced the cable and installed the update twice. "
    "A friend of mine checked the router and found nothing. "
    "Do you know whether the scanner would degrade the speed? "
    "Can I replace the drive without rebuilding the machine? "
    "What should I do about the router?";

// --------------------------------------------------------- segmentation ----

TEST(Segmentation, SegmentsAndBorders) {
  Segmentation s{10, {3, 7}};
  EXPECT_TRUE(s.is_valid());
  auto segs = s.segments();
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(segs[1], (std::pair<size_t, size_t>{3, 7}));
  EXPECT_EQ(segs[2], (std::pair<size_t, size_t>{7, 10}));
  EXPECT_EQ(s.num_segments(), 3u);
  EXPECT_EQ(s.segment_of_unit(0), 0u);
  EXPECT_EQ(s.segment_of_unit(3), 1u);
  EXPECT_EQ(s.segment_of_unit(9), 2u);
}

TEST(Segmentation, ValidityChecks) {
  EXPECT_FALSE((Segmentation{5, {0}}).is_valid());   // border at 0
  EXPECT_FALSE((Segmentation{5, {5}}).is_valid());   // border at end
  EXPECT_FALSE((Segmentation{5, {2, 2}}).is_valid()); // duplicate
  EXPECT_FALSE((Segmentation{5, {3, 2}}).is_valid()); // unsorted
  EXPECT_TRUE((Segmentation{5, {}}).is_valid());
}

TEST(Segmentation, AllUnitsAndWhole) {
  Segmentation all = Segmentation::all_units(4);
  EXPECT_EQ(all.borders.size(), 3u);
  EXPECT_EQ(all.num_segments(), 4u);
  Segmentation whole = Segmentation::whole(4);
  EXPECT_EQ(whole.num_segments(), 1u);
}

TEST(Segmentation, BoundaryIndicator) {
  Segmentation s{5, {2}};
  auto gaps = boundary_indicator(s);
  ASSERT_EQ(gaps.size(), 4u);
  EXPECT_EQ(gaps[0], 0);
  EXPECT_EQ(gaps[1], 1);
  EXPECT_EQ(gaps[2], 0);
}

// ------------------------------------------------------------- document ----

TEST(Document, AnalyzeBuildsSentencesAndProfiles) {
  Document d = Document::analyze(7, kThreeIntentPost);
  EXPECT_EQ(d.id(), 7u);
  EXPECT_EQ(d.num_units(), 9u);
  // Prefix-sum range profiles agree with direct accumulation.
  CmProfile direct;
  for (size_t u = 2; u < 5; ++u) direct.merge(d.unit_profile(u));
  CmProfile ranged = d.range_profile(2, 5);
  for (size_t i = 0; i < direct.counts.size(); ++i) {
    EXPECT_NEAR(ranged.counts[i], direct.counts[i], 1e-9);
  }
}

TEST(Document, BorderCharOffsets) {
  Document d = Document::analyze(0, "One two. Three four.");
  ASSERT_EQ(d.num_units(), 2u);
  EXPECT_EQ(d.border_char_offset(0), 0u);
  EXPECT_EQ(d.border_char_offset(1), 9u);  // start of "Three"
  EXPECT_GT(d.border_char_offset(2), d.border_char_offset(1));
}

TEST(Document, RangeText) {
  Document d = Document::analyze(0, "One two. Three four.");
  EXPECT_EQ(d.range_text(1, 2), "Three four.");
  EXPECT_TRUE(d.range_text(1, 1).empty());
}

TEST(Document, EmptyDocument) {
  Document d = Document::analyze(0, "");
  EXPECT_EQ(d.num_units(), 0u);
}

TEST(Document, CopiesShareOneAnalysis) {
  Document d = Document::analyze(3, kThreeIntentPost);
  Document copy = d;
  Document assigned;
  assigned = d;
  for (const Document* c : {&copy, &assigned}) {
    EXPECT_EQ(c->id(), 3u);
    EXPECT_EQ(c->text().data(), d.text().data());
    EXPECT_EQ(c->tokens().data(), d.tokens().data());
    EXPECT_EQ(c->sentences().data(), d.sentences().data());
    EXPECT_EQ(c->footprint_bytes(), d.footprint_bytes());
  }
  // The resident payload holds at least its text, sentences and two
  // profiles per unit; the token array is not part of it.
  EXPECT_GE(d.footprint_bytes(),
            d.text().size() + d.num_units() * sizeof(Sentence) +
                2 * d.num_units() * sizeof(CmProfile));
  // A move hands the payload over and leaves the source empty.
  Document moved = std::move(copy);
  EXPECT_EQ(moved.tokens().data(), d.tokens().data());
  EXPECT_EQ(copy.num_units(), 0u);
  EXPECT_TRUE(copy.text().empty());
}

TEST(Document, DroppedTokensThrowAndRetokenizeIdentically) {
  Document d = Document::analyze(5, kThreeIntentPost);
  const std::vector<Token> original = d.tokens();
  ASSERT_FALSE(original.empty());
  Document trimmed = d;
  EXPECT_TRUE(trimmed.holds_tokens());
  EXPECT_EQ(trimmed.index_tokens().get(), &d.tokens());  // the held array
  trimmed.drop_tokens();
  EXPECT_FALSE(trimmed.holds_tokens());
  EXPECT_THROW(trimmed.tokens(), std::logic_error);
  // Other handles keep their array; the resident analysis is shared.
  EXPECT_TRUE(d.holds_tokens());
  EXPECT_EQ(trimmed.text().data(), d.text().data());
  EXPECT_EQ(trimmed.footprint_bytes(), d.footprint_bytes());
  // A re-index reads the same tokens again.
  const std::shared_ptr<const std::vector<Token>> again =
      trimmed.index_tokens();
  ASSERT_EQ(again->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*again)[i].lower, original[i].lower) << i;
    EXPECT_EQ((*again)[i].kind, original[i].kind) << i;
    EXPECT_EQ((*again)[i].begin, original[i].begin) << i;
    EXPECT_EQ((*again)[i].end, original[i].end) << i;
  }
  // Moves carry the dropped state along.
  Document moved = std::move(trimmed);
  EXPECT_FALSE(moved.holds_tokens());
  EXPECT_TRUE(trimmed.holds_tokens());
  EXPECT_TRUE(trimmed.tokens().empty());
}

TEST(Document, DefaultIsEmptyAndCopyable) {
  Document d;
  EXPECT_EQ(d.id(), 0u);
  EXPECT_TRUE(d.text().empty());
  EXPECT_TRUE(d.tokens().empty());
  EXPECT_EQ(d.num_units(), 0u);
  EXPECT_EQ(d.border_char_offset(0), 0u);
  EXPECT_TRUE(d.range_text(0, 0).empty());
  Document copy = d;
  EXPECT_EQ(copy.num_units(), 0u);
  EXPECT_EQ(copy.footprint_bytes(), d.footprint_bytes());
  std::vector<Document> slots(3);
  slots[1] = Document::analyze(1, "One two. Three four.");
  EXPECT_EQ(slots[0].num_units(), 0u);
  EXPECT_EQ(slots[1].num_units(), 2u);
}

// ------------------------------------------------------------ diversity ----

TEST(Diversity, ShannonBounds) {
  CmProfile p;
  p.add(CmKind::kTense, 0, 5.0);
  // Single value -> zero diversity.
  EXPECT_DOUBLE_EQ(cm_diversity(p, CmKind::kTense, DiversityIndex::kShannon),
                   0.0);
  // Uniform over all 3 values -> maximal (1 after normalization).
  CmProfile u;
  for (int v = 0; v < 3; ++v) u.add(CmKind::kTense, v, 2.0);
  EXPECT_NEAR(cm_diversity(u, CmKind::kTense, DiversityIndex::kShannon), 1.0,
              1e-12);
  // Empty CM -> 0 by convention.
  CmProfile e;
  EXPECT_DOUBLE_EQ(cm_diversity(e, CmKind::kTense, DiversityIndex::kShannon),
                   0.0);
}

TEST(Diversity, RichnessCountsNonZero) {
  CmProfile p;
  p.add(CmKind::kTense, 0, 1.0);
  p.add(CmKind::kTense, 2, 1.0);
  EXPECT_EQ(cm_richness_count(p, CmKind::kTense), 2);
  EXPECT_NEAR(cm_diversity(p, CmKind::kTense, DiversityIndex::kRichness),
              2.0 / 3.0, 1e-12);
}

TEST(Diversity, EvennessUniformIsOne) {
  CmProfile p;
  p.add(CmKind::kTense, 0, 3.0);
  p.add(CmKind::kTense, 1, 3.0);
  EXPECT_NEAR(cm_evenness(p, CmKind::kTense), 1.0, 1e-12);
  // Skewed distribution is less even.
  CmProfile q;
  q.add(CmKind::kTense, 0, 9.0);
  q.add(CmKind::kTense, 1, 1.0);
  EXPECT_LT(cm_evenness(q, CmKind::kTense), 1.0);
}

TEST(Diversity, MoreEvenMeansMoreDiverse) {
  CmProfile skewed;
  skewed.add(CmKind::kTense, 0, 9.0);
  skewed.add(CmKind::kTense, 1, 1.0);
  CmProfile even;
  even.add(CmKind::kTense, 0, 5.0);
  even.add(CmKind::kTense, 1, 5.0);
  EXPECT_LT(cm_diversity(skewed, CmKind::kTense, DiversityIndex::kShannon),
            cm_diversity(even, CmKind::kTense, DiversityIndex::kShannon));
}

// ------------------------------------------------------ coherence/depth ----

TEST(Coherence, PureSegmentIsFullyCoherent) {
  CmProfile p;
  p.add(CmKind::kTense, 0, 4.0);
  p.add(CmKind::kSubject, 0, 2.0);
  SegScoring scoring;
  EXPECT_NEAR(segment_coherence(p, scoring), 1.0, 1e-12);
}

TEST(Coherence, MixedSegmentLessCoherent) {
  CmProfile mixed;
  for (int v = 0; v < 3; ++v) mixed.add(CmKind::kTense, v, 2.0);
  SegScoring scoring;
  EXPECT_LT(segment_coherence(mixed, scoring), 1.0);
}

TEST(Coherence, CmMaskRestrictsCms) {
  CmProfile p;
  for (int v = 0; v < 3; ++v) p.add(CmKind::kTense, v, 2.0);  // diverse tense
  p.add(CmKind::kSubject, 0, 5.0);                            // pure subject
  SegScoring tense_only;
  tense_only.cm_mask = 1u << static_cast<int>(CmKind::kTense);
  SegScoring subject_only;
  subject_only.cm_mask = 1u << static_cast<int>(CmKind::kSubject);
  EXPECT_LT(segment_coherence(p, tense_only),
            segment_coherence(p, subject_only));
}

TEST(Depth, DifferentSidesAreDeeperThanSameSides) {
  CmProfile past;
  past.add(CmKind::kTense, 1, 4.0);
  CmProfile present;
  present.add(CmKind::kTense, 0, 4.0);
  SegScoring scoring;
  double deep = border_depth(past, present, scoring);
  double flat = border_depth(past, past, scoring);
  EXPECT_GT(deep, flat);
  EXPECT_NEAR(flat, 0.0, 1e-9);
}

TEST(Depth, DistanceVariantsAgreeOnOrdering) {
  CmProfile past;
  past.add(CmKind::kTense, 1, 4.0);
  CmProfile present;
  present.add(CmKind::kTense, 0, 4.0);
  for (DepthFn fn : {DepthFn::kCosine, DepthFn::kEuclidean,
                     DepthFn::kManhattan}) {
    SegScoring scoring;
    scoring.depth = fn;
    EXPECT_GT(border_depth(past, present, scoring),
              border_depth(past, past, scoring))
        << static_cast<int>(fn);
  }
}

TEST(BorderScore, AveragesThreeComponents) {
  CmProfile past;
  past.add(CmKind::kTense, 1, 4.0);
  CmProfile present;
  present.add(CmKind::kTense, 0, 4.0);
  SegScoring scoring;
  double score = border_score(past, present, scoring);
  double expected = (segment_coherence(past, scoring) +
                     segment_coherence(present, scoring) +
                     border_depth(past, present, scoring)) /
                    3.0;
  EXPECT_DOUBLE_EQ(score, expected);
}

// ---------------------------------------------------- border strategies ----

TEST(BorderStrategies, AllStrategiesProduceValidSegmentations) {
  Document d = Document::analyze(0, kThreeIntentPost);
  for (BorderStrategyKind kind :
       {BorderStrategyKind::kTile, BorderStrategyKind::kStepByStep,
        BorderStrategyKind::kGreedy, BorderStrategyKind::kSentences}) {
    Segmentation s = select_borders(d, kind);
    EXPECT_TRUE(s.is_valid()) << border_strategy_name(kind);
    EXPECT_EQ(s.num_units, d.num_units());
  }
}

TEST(BorderStrategies, SentencesStrategyKeepsEveryBorder) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Segmentation s = select_borders(d, BorderStrategyKind::kSentences);
  EXPECT_EQ(s.num_segments(), d.num_units());
}

TEST(BorderStrategies, TinyDocumentsReturnWhole) {
  Document one = Document::analyze(0, "Only one sentence here.");
  for (BorderStrategyKind kind :
       {BorderStrategyKind::kTile, BorderStrategyKind::kStepByStep,
        BorderStrategyKind::kGreedy}) {
    Segmentation s = select_borders(one, kind);
    EXPECT_TRUE(s.borders.empty()) << border_strategy_name(kind);
  }
  Document empty = Document::analyze(0, "");
  EXPECT_EQ(select_borders(empty, BorderStrategyKind::kGreedy).num_segments(),
            0u);
}

TEST(BorderStrategies, TileMergesSomething) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Segmentation s = select_borders(d, BorderStrategyKind::kTile);
  EXPECT_LT(s.borders.size(), d.num_units() - 1);
}

TEST(BorderStrategies, ScoreBordersMatchesBorderCount) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Segmentation s = select_borders(d, BorderStrategyKind::kSentences);
  auto scores = score_borders(d, s, SegScoring{});
  EXPECT_EQ(scores.size(), s.borders.size());
}

TEST(BorderStrategies, MeanSegmentCoherenceInUnitRange) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Segmentation s = select_borders(d, BorderStrategyKind::kGreedy);
  double c = mean_segment_coherence(d, s, SegScoring{});
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

// ------------------------------------------------------------ texttiling ----

TEST(TextTiling, ValidOnRealisticPost) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Vocabulary vocab;
  Segmentation s = texttiling_segment(d, vocab);
  EXPECT_TRUE(s.is_valid());
  EXPECT_EQ(s.num_units, d.num_units());
}

TEST(TextTiling, TinyDocReturnsWhole) {
  Document d = Document::analyze(0, "Single sentence.");
  Vocabulary vocab;
  EXPECT_TRUE(texttiling_segment(d, vocab).borders.empty());
}

TEST(CmTiling, ValidAndFindsIntentShift) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Segmentation s = cm_tiling_segment(d);
  EXPECT_TRUE(s.is_valid());
  // The post has 3 clear intention blocks; expect at least one border.
  EXPECT_GE(s.borders.size(), 1u);
}

// -------------------------------------------------------------- facade ----

TEST(Segmenter, FacadeNamesAndBehaviour) {
  Document d = Document::analyze(0, kThreeIntentPost);
  Vocabulary vocab;
  EXPECT_EQ(Segmenter::sentences().segment(d, vocab).num_segments(),
            d.num_units());
  EXPECT_EQ(Segmenter::intention().name(), "Intention/Greedy");
  EXPECT_EQ(Segmenter::topical().name(), "Topical/TextTiling");
  EXPECT_EQ(Segmenter::cm_tiling().name(), "Intention/CmTiling");
  EXPECT_TRUE(Segmenter::cm_tiling().segment(d, vocab).is_valid());
}

}  // namespace
}  // namespace ibseg
