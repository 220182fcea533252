// Unit tests for src/nlp: lexicon, POS tagger, verb-group analysis and the
// CM annotator that feeds the paper's Table 1 features.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "nlp/cm_annotator.h"
#include "nlp/lexicon.h"
#include "nlp/pos_tagger.h"
#include "nlp/verb_group.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace ibseg {
namespace {

std::map<std::string, Pos> tag_map(const std::string& text) {
  auto tokens = tokenize(text);
  auto tags = tag_tokens(tokens);
  std::map<std::string, Pos> out;
  for (size_t i = 0; i < tokens.size(); ++i) out[tokens[i].lower] = tags[i];
  return out;
}

CmProfile profile_of(const std::string& text) {
  auto tokens = tokenize(text);
  auto sentences = split_sentences(tokens, text);
  auto profiles = annotate_sentences(tokens, sentences);
  CmProfile merged;
  for (const CmProfile& p : profiles) merged.merge(p);
  return merged;
}

// -------------------------------------------------------------- lexicon ----

TEST(Lexicon, ClosedClassLookups) {
  const Lexicon& lex = lexicon();
  EXPECT_EQ(*lex.closed_class("i"), Pos::kPronoun1);
  EXPECT_EQ(*lex.closed_class("you"), Pos::kPronoun2);
  EXPECT_EQ(*lex.closed_class("they"), Pos::kPronoun3);
  EXPECT_EQ(*lex.closed_class("was"), Pos::kAuxBe);
  EXPECT_EQ(*lex.closed_class("will"), Pos::kModal);
  EXPECT_EQ(*lex.closed_class("not"), Pos::kNegation);
  EXPECT_EQ(*lex.closed_class("to"), Pos::kTo);
  EXPECT_FALSE(lex.closed_class("printer").has_value());
}

TEST(Lexicon, IrregularVerbs) {
  const Lexicon& lex = lexicon();
  EXPECT_EQ(lex.irregular_verb("went")->tag, Pos::kVerbPast);
  EXPECT_EQ(lex.irregular_verb("gone")->tag, Pos::kVerbPastPart);
  EXPECT_FALSE(lex.irregular_verb("walked").has_value());
}

TEST(Lexicon, KnownVerbBases) {
  const Lexicon& lex = lexicon();
  EXPECT_TRUE(lex.is_known_verb_base("install"));
  EXPECT_TRUE(lex.is_known_verb_base("recommend"));
  EXPECT_FALSE(lex.is_known_verb_base("xyzzy"));
}

// --------------------------------------------------------------- tagger ----

TEST(PosTagger, BasicSentence) {
  auto tags = tag_map("I have a new laptop");
  EXPECT_EQ(tags["i"], Pos::kPronoun1);
  EXPECT_EQ(tags["have"], Pos::kAuxHave);
  EXPECT_EQ(tags["a"], Pos::kDeterminer);
  EXPECT_EQ(tags["new"], Pos::kAdjective);
  EXPECT_EQ(tags["laptop"], Pos::kNoun);
}

TEST(PosTagger, RegularPastAndGerund) {
  auto tags = tag_map("it crashed while printing");
  EXPECT_EQ(tags["crashed"], Pos::kVerbPast);
  EXPECT_EQ(tags["printing"], Pos::kVerbGerund);
}

TEST(PosTagger, HaveParticiple) {
  auto tags = tag_map("I have installed the update");
  EXPECT_EQ(tags["installed"], Pos::kVerbPastPart);
}

TEST(PosTagger, PassiveParticiple) {
  auto tags = tag_map("the room was cleaned daily");
  EXPECT_EQ(tags["cleaned"], Pos::kVerbPastPart);
  EXPECT_EQ(tags["daily"], Pos::kAdverb);
}

TEST(PosTagger, InfinitiveAfterTo) {
  auto tags = tag_map("I want to install linux");
  EXPECT_EQ(tags["install"], Pos::kVerbBase);
}

TEST(PosTagger, ThirdPersonSForm) {
  auto tags = tag_map("the printer stops");
  EXPECT_EQ(tags["stops"], Pos::kVerbPresent3);
}

TEST(PosTagger, DeterminerGerundIsNoun) {
  auto tags = tag_map("the booking was fine");
  EXPECT_EQ(tags["booking"], Pos::kNoun);
}

TEST(PosTagger, SuffixMorphology) {
  auto tags = tag_map("a wonderful configuration worked quickly");
  EXPECT_EQ(tags["wonderful"], Pos::kAdjective);
  EXPECT_EQ(tags["configuration"], Pos::kNoun);
  EXPECT_EQ(tags["quickly"], Pos::kAdverb);
}

TEST(PosTagger, IrregularPast) {
  auto tags = tag_map("the system froze yesterday");
  EXPECT_EQ(tags["froze"], Pos::kVerbPast);
}

TEST(PosTagger, PosNamesAreStable) {
  EXPECT_STREQ(pos_name(Pos::kNoun), "NOUN");
  EXPECT_STREQ(pos_name(Pos::kVerbPast), "VBD");
  EXPECT_TRUE(is_main_verb(Pos::kVerbGerund));
  EXPECT_FALSE(is_main_verb(Pos::kModal));
  EXPECT_TRUE(is_auxiliary(Pos::kAuxDo));
}

// ---------------------------------------------------------- verb groups ----

std::vector<VerbGroup> groups_of(const std::string& text) {
  auto tokens = tokenize(text);
  auto tags = tag_tokens(tokens);
  return find_verb_groups(tokens, tags, 0, tokens.size());
}

TEST(VerbGroups, SimplePresent) {
  auto g = groups_of("The printer stops.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].tense, Tense::kPresent);
  EXPECT_EQ(g[0].voice, Voice::kActive);
  EXPECT_FALSE(g[0].negated);
}

TEST(VerbGroups, SimplePast) {
  auto g = groups_of("The printer stopped.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].tense, Tense::kPast);
}

TEST(VerbGroups, FutureWithWill) {
  auto g = groups_of("We will install it.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].tense, Tense::kFuture);
}

TEST(VerbGroups, PresentPerfectCountsAsPast) {
  auto g = groups_of("I have installed it.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].tense, Tense::kPast);
}

TEST(VerbGroups, PassiveVoice) {
  auto g = groups_of("The room was cleaned.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].voice, Voice::kPassive);
  EXPECT_EQ(g[0].tense, Tense::kPast);
}

TEST(VerbGroups, NegationDetected) {
  auto g = groups_of("It did not work.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_TRUE(g[0].negated);
  EXPECT_EQ(g[0].tense, Tense::kPast);
}

TEST(VerbGroups, ContractedNegation) {
  auto g = groups_of("It didn't work.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_TRUE(g[0].negated);
}

TEST(VerbGroups, MultipleGroups) {
  auto g = groups_of("I called support and they suggested a reset.");
  EXPECT_GE(g.size(), 2u);
  EXPECT_EQ(g[0].tense, Tense::kPast);
}

// --------------------------------------------------------- CM annotator ----

TEST(CmAnnotator, TenseCounts) {
  CmProfile p = profile_of("I installed it. It works. We will see.");
  EXPECT_GE(p.count(CmKind::kTense, 1), 1.0);  // past
  EXPECT_GE(p.count(CmKind::kTense, 0), 1.0);  // present
  EXPECT_GE(p.count(CmKind::kTense, 2), 1.0);  // future
}

TEST(CmAnnotator, SubjectPersons) {
  CmProfile p = profile_of("I saw you and they saw him.");
  EXPECT_GE(p.count(CmKind::kSubject, 0), 1.0);
  EXPECT_GE(p.count(CmKind::kSubject, 1), 1.0);
  EXPECT_GE(p.count(CmKind::kSubject, 2), 2.0);
}

TEST(CmAnnotator, InterrogativeStyle) {
  CmProfile q = profile_of("Do you know the answer?");
  EXPECT_DOUBLE_EQ(q.count(CmKind::kStyle, 0), 1.0);
  CmProfile wh = profile_of("What should I do about it?");
  EXPECT_DOUBLE_EQ(wh.count(CmKind::kStyle, 0), 1.0);
  // Declarative word order: only the final '?' marks the question.
  CmProfile marked = profile_of("The printer prints blank pages?");
  EXPECT_DOUBLE_EQ(marked.count(CmKind::kStyle, 0), 1.0);
}

TEST(CmAnnotator, NegativeStyle) {
  CmProfile p = profile_of("The printer does not respond.");
  EXPECT_DOUBLE_EQ(p.count(CmKind::kStyle, 1), 1.0);
}

TEST(CmAnnotator, AffirmativeStyle) {
  CmProfile p = profile_of("The printer responds.");
  EXPECT_DOUBLE_EQ(p.count(CmKind::kStyle, 2), 1.0);
}

TEST(CmAnnotator, VoiceCounts) {
  CmProfile p = profile_of("The room was cleaned. The staff cleans it.");
  EXPECT_GE(p.count(CmKind::kVoice, 0), 1.0);  // passive
  EXPECT_GE(p.count(CmKind::kVoice, 1), 1.0);  // active
}

TEST(CmAnnotator, PosCounts) {
  CmProfile p = profile_of("The old printer quickly prints pages.");
  EXPECT_GE(p.count(CmKind::kPos, 0), 1.0);  // verb
  EXPECT_GE(p.count(CmKind::kPos, 1), 2.0);  // nouns
  EXPECT_GE(p.count(CmKind::kPos, 2), 2.0);  // adj + adverb
}

TEST(CmAnnotator, OneProfilePerSentence) {
  std::string text = "First sentence. Second sentence. Third one.";
  auto tokens = tokenize(text);
  auto sentences = split_sentences(tokens, text);
  auto profiles = annotate_sentences(tokens, sentences);
  EXPECT_EQ(profiles.size(), 3u);
}

// ------------------------------------------------------------ cm profile ----

TEST(CmProfile, FeatureIndexLayout) {
  EXPECT_EQ(cm_feature_index(CmKind::kTense, 0), 0);
  EXPECT_EQ(cm_feature_index(CmKind::kSubject, 0), 3);
  EXPECT_EQ(cm_feature_index(CmKind::kStyle, 0), 6);
  EXPECT_EQ(cm_feature_index(CmKind::kVoice, 0), 9);
  EXPECT_EQ(cm_feature_index(CmKind::kPos, 0), 11);
  EXPECT_EQ(cm_feature_index(CmKind::kPos, 2), 13);
  EXPECT_EQ(kNumCmFeatures, 14);
}

TEST(CmProfile, MergeAndTotals) {
  CmProfile a;
  a.add(CmKind::kTense, 0, 2.0);
  CmProfile b;
  b.add(CmKind::kTense, 1, 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.cm_total(CmKind::kTense), 5.0);
  EXPECT_DOUBLE_EQ(a.total(), 5.0);
}

TEST(CmProfile, Names) {
  EXPECT_STREQ(cm_name(CmKind::kStyle), "Style");
  EXPECT_STREQ(cm_value_name(CmKind::kTense, 1), "past");
  EXPECT_STREQ(cm_value_name(CmKind::kVoice, 0), "passive");
}

}  // namespace
}  // namespace ibseg
