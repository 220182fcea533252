// Unit tests for src/text: tokenizer, sentence splitter, HTML cleaner,
// Porter stemmer, vocabulary, term vectors.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "text/html_cleaner.h"
#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/stopwords.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ibseg {
namespace {

// ------------------------------------------------------------ tokenizer ----

/// A token's surface form, read back through its offsets.
std::string_view surface(std::string_view text, const Token& t) {
  return text.substr(t.begin, t.end - t.begin);
}

TEST(Tokenizer, BasicWordsAndPunctuation) {
  const std::string text = "Hello, world!";
  auto tokens = tokenize(text);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(surface(text, tokens[0]), "Hello");
  EXPECT_EQ(tokens[0].lower, "hello");
  EXPECT_EQ(surface(text, tokens[1]), ",");
  EXPECT_EQ(tokens[1].kind, TokenKind::kPunctuation);
  EXPECT_EQ(surface(text, tokens[2]), "world");
  EXPECT_EQ(surface(text, tokens[3]), "!");
}

TEST(Tokenizer, OffsetsAreExact) {
  const std::string text = "ab  cd.";
  auto tokens = tokenize(text);
  const std::vector<std::string> expected = {"ab", "cd", "."};
  ASSERT_EQ(tokens.size(), expected.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(surface(text, tokens[i]), expected[i]) << i;
  }
}

TEST(Tokenizer, SplitsNegationContraction) {
  auto tokens = tokenize("It didn't work");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].lower, "did");
  EXPECT_EQ(tokens[2].lower, "n't");
  EXPECT_EQ(tokens[3].lower, "work");
}

TEST(Tokenizer, SplitsApostropheClitics) {
  auto tokens = tokenize("I'm sure they'll come");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].lower, "i");
  EXPECT_EQ(tokens[1].lower, "'m");
  EXPECT_EQ(tokens[3].lower, "they");
  EXPECT_EQ(tokens[4].lower, "'ll");
}

TEST(Tokenizer, ContractionSplitCanBeDisabled) {
  TokenizerOptions opts;
  opts.split_contractions = false;
  auto tokens = tokenize("didn't", opts);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].lower, "didn't");
}

TEST(Tokenizer, NumbersWithUnitsAndDots) {
  const std::string text = "a 320GB drive and MySQL 5.5.3";
  auto tokens = tokenize(text);
  // "320GB" one number token, "5.5.3" one number token.
  int numbers = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kNumber) {
      ++numbers;
      const std::string_view form = surface(text, t);
      EXPECT_TRUE(form == "320GB" || form == "5.5.3") << form;
    }
  }
  EXPECT_EQ(numbers, 2);
}

TEST(Tokenizer, HyphenatedWordStaysTogether) {
  auto tokens = tokenize("a pre-installed e-mail");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].lower, "pre-installed");
  EXPECT_EQ(tokens[2].lower, "e-mail");
}

TEST(Tokenizer, EmptyInput) { EXPECT_TRUE(tokenize("").empty()); }

TEST(Tokenizer, WordTokensFiltersNonWords) {
  auto words = word_tokens("The 3 cats!");
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], "the");
  EXPECT_EQ(words[1], "cats");
}

// ----------------------------------------------------- sentence splitter ----

std::vector<Sentence> split(const std::string& text) {
  return split_sentences(tokenize(text), text);
}

TEST(SentenceSplitter, SplitsOnTerminators) {
  auto s = split("One. Two! Three?");
  ASSERT_EQ(s.size(), 3u);
}

TEST(SentenceSplitter, AbbreviationDoesNotSplit) {
  auto s = split("Use e.g. a printer. Done.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceSplitter, TerminatorRunsFoldTogether) {
  auto s = split("Really?! Yes...");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceSplitter, NewlineEndsSentence) {
  auto s = split("no final period here\nAnother line.");
  ASSERT_EQ(s.size(), 2u);
}

TEST(SentenceSplitter, CharSpansCoverTokens) {
  std::string text = "Alpha beta. Gamma delta.";
  auto s = split(text);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].char_begin, 0u);
  EXPECT_GT(s[1].char_begin, s[0].char_end - 1);
}

TEST(SentenceSplitter, EmptyTokens) {
  EXPECT_TRUE(split_sentences({}, "").empty());
}

// --------------------------------------------------------- html cleaner ----

TEST(HtmlCleaner, StripsTagsAndDecodesEntities) {
  EXPECT_EQ(strip_html("<b>bold</b> &amp; <i>x</i>"), "bold & x");
}

TEST(HtmlCleaner, BlockTagsBecomeNewlines) {
  std::string out = strip_html("line one<br>line two<p>line three</p>");
  EXPECT_NE(out.find("line one\nline two"), std::string::npos);
}

TEST(HtmlCleaner, DropsScriptAndStyleContent) {
  std::string out =
      strip_html("keep<script>var x = 1;</script> this<style>p{}</style>");
  EXPECT_EQ(out.find("var x"), std::string::npos);
  EXPECT_NE(out.find("keep"), std::string::npos);
  EXPECT_NE(out.find("this"), std::string::npos);
}

TEST(HtmlCleaner, KeepsCodeContent) {
  std::string out = strip_html("<code>int main()</code>");
  EXPECT_NE(out.find("int main()"), std::string::npos);
}

TEST(HtmlCleaner, NumericEntities) {
  EXPECT_EQ(strip_html("&#65;&#66;"), "AB");
}

TEST(HtmlCleaner, CollapsesWhitespace) {
  EXPECT_EQ(strip_html("a   \t b"), "a b");
}

// -------------------------------------------------------------- stemmer ----

TEST(PorterStemmer, ClassicPairs) {
  // Reference pairs from Porter's paper and the standard test vocabulary.
  EXPECT_EQ(porter_stem("caresses"), "caress");
  EXPECT_EQ(porter_stem("ponies"), "poni");
  EXPECT_EQ(porter_stem("cats"), "cat");
  EXPECT_EQ(porter_stem("feed"), "feed");
  EXPECT_EQ(porter_stem("agreed"), "agre");
  EXPECT_EQ(porter_stem("plastered"), "plaster");
  EXPECT_EQ(porter_stem("motoring"), "motor");
  EXPECT_EQ(porter_stem("conflated"), "conflat");
  EXPECT_EQ(porter_stem("troubled"), "troubl");
  EXPECT_EQ(porter_stem("sized"), "size");
  EXPECT_EQ(porter_stem("hopping"), "hop");
  EXPECT_EQ(porter_stem("falling"), "fall");
  EXPECT_EQ(porter_stem("hissing"), "hiss");
  EXPECT_EQ(porter_stem("happy"), "happi");
  EXPECT_EQ(porter_stem("relational"), "relat");
  EXPECT_EQ(porter_stem("conditional"), "condit");
  EXPECT_EQ(porter_stem("vietnamization"), "vietnam");
  EXPECT_EQ(porter_stem("triplicate"), "triplic");
  EXPECT_EQ(porter_stem("hopefulness"), "hope");
  EXPECT_EQ(porter_stem("goodness"), "good");
  EXPECT_EQ(porter_stem("revival"), "reviv");
  EXPECT_EQ(porter_stem("adjustment"), "adjust");
  EXPECT_EQ(porter_stem("effective"), "effect");
  EXPECT_EQ(porter_stem("probate"), "probat");
  EXPECT_EQ(porter_stem("controll"), "control");
  EXPECT_EQ(porter_stem("roll"), "roll");
}

TEST(PorterStemmer, TenseVariantsShareStem) {
  // The data generator relies on this: all inflections of a verb lemma map
  // to one retrieval term.
  EXPECT_EQ(porter_stem("checked"), porter_stem("checks"));
  EXPECT_EQ(porter_stem("checked"), porter_stem("checking"));
  EXPECT_EQ(porter_stem("installed"), porter_stem("installing"));
  EXPECT_EQ(porter_stem("tried"), porter_stem("tries"));
}

TEST(PorterStemmer, ShortWordsUnchanged) {
  EXPECT_EQ(porter_stem("be"), "be");
  EXPECT_EQ(porter_stem("a"), "a");
}

// ----------------------------------------------------------- vocabulary ----

TEST(Vocabulary, InternIsIdempotent) {
  Vocabulary v;
  TermId a = v.intern("printer");
  TermId b = v.intern("printer");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.term(a), "printer");
}

TEST(Vocabulary, FindUnknownReturnsSentinel) {
  Vocabulary v;
  EXPECT_EQ(v.find("ghost"), kInvalidTerm);
  v.intern("real");
  EXPECT_NE(v.find("real"), kInvalidTerm);
}

// ------------------------------------------------------------ stopwords ----

TEST(Stopwords, CommonWordsAreStopwords) {
  EXPECT_TRUE(is_stopword("the"));
  EXPECT_TRUE(is_stopword("n't"));
  EXPECT_FALSE(is_stopword("printer"));
  EXPECT_GT(stopword_count(), 100u);
}

// ---------------------------------------------------------- term vector ----

TEST(TermVector, BuildFiltersStopwordsAndStems) {
  Vocabulary v;
  auto tokens = tokenize("the printers are printing");
  TermVector tv = build_term_vector(tokens, 0, tokens.size(), v);
  // "the"/"are" dropped; printers/printing share the stem "printer"? No:
  // porter: printers->printer, printing->print. Check both present.
  EXPECT_GT(tv.num_terms(), 0u);
  TermId printer = v.find("printer");
  ASSERT_NE(printer, kInvalidTerm);
  EXPECT_DOUBLE_EQ(tv.weight(printer), 1.0);
}

TEST(TermVector, CosineOfIdenticalIsOne) {
  Vocabulary v;
  auto tokens = tokenize("alpha beta gamma");
  TermVector a = build_term_vector(tokens, 0, tokens.size(), v);
  EXPECT_NEAR(TermVector::cosine(a, a), 1.0, 1e-12);
}

TEST(TermVector, CosineOfDisjointIsZero) {
  Vocabulary v;
  TermVector a;
  TermVector b;
  a.add(v.intern("alpha"));
  b.add(v.intern("beta"));
  EXPECT_DOUBLE_EQ(TermVector::cosine(a, b), 0.0);
  EXPECT_DOUBLE_EQ(TermVector::cosine(a, TermVector()), 0.0);
}

TEST(TermVector, MergeAccumulates) {
  Vocabulary v;
  TermVector a;
  TermVector b;
  TermId x = v.intern("x");
  a.add(x, 2.0);
  b.add(x, 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.weight(x), 5.0);
  EXPECT_DOUBLE_EQ(a.total_weight(), 5.0);
}

/// True when `tv`'s entries are strictly ascending by term.
bool strictly_ascending(const TermVector& tv) {
  const auto& e = tv.entries();
  for (size_t i = 1; i < e.size(); ++i) {
    if (!(e[i - 1].first < e[i].first)) return false;
  }
  return true;
}

TEST(TermVector, EntriesStayStrictlyAscendingWhateverTheAddOrder) {
  TermVector tv;
  for (TermId t : {7u, 3u, 9u, 3u, 0u, 7u, 12u, 5u}) tv.add(t);
  ASSERT_TRUE(strictly_ascending(tv));
  const std::vector<TermVector::Entry> want = {
      {0, 1.0}, {3, 2.0}, {5, 1.0}, {7, 2.0}, {9, 1.0}, {12, 1.0}};
  EXPECT_EQ(tv.entries(), want);
  EXPECT_EQ(tv.num_terms(), 6u);
  EXPECT_FALSE(tv.empty());
  EXPECT_TRUE(TermVector().empty());

  Vocabulary v;
  auto tokens = tokenize("zeta alpha printer zeta alpha modem printer zeta");
  TermVector built = build_term_vector(tokens, 0, tokens.size(), v);
  EXPECT_TRUE(strictly_ascending(built));
  EXPECT_EQ(built.num_terms(), 4u);
}

TEST(TermVector, OperationsMatchHandComputedValues) {
  TermVector a;
  a.add(4, 2.0);
  a.add(1, 1.0);
  a.add(9, 0.5);
  a.add(4, 1.0);  // 4 -> 3.0
  TermVector b;
  b.add(9, 4.0);
  b.add(2, 2.0);
  b.add(4, 1.0);

  EXPECT_EQ(a.weight(1), 1.0);
  EXPECT_EQ(a.weight(4), 3.0);
  EXPECT_EQ(a.weight(9), 0.5);
  EXPECT_EQ(a.weight(2), 0.0);    // absent, between entries
  EXPECT_EQ(a.weight(100), 0.0);  // absent, past the end
  EXPECT_EQ(a.total_weight(), 4.5);

  // dot = 3*1 + 0.5*4 = 5; |a|^2 = 1 + 9 + 0.25; |b|^2 = 16 + 4 + 1.
  EXPECT_DOUBLE_EQ(TermVector::cosine(a, b),
                   5.0 / (std::sqrt(10.25) * std::sqrt(21.0)));
  EXPECT_DOUBLE_EQ(TermVector::cosine(b, a), TermVector::cosine(a, b));

  TermVector m = a;
  m.merge(b);
  ASSERT_TRUE(strictly_ascending(m));
  const std::vector<TermVector::Entry> want = {
      {1, 1.0}, {2, 2.0}, {4, 4.0}, {9, 4.5}};
  EXPECT_EQ(m.entries(), want);
  EXPECT_EQ(m.total_weight(), 11.5);

  // Merging into or from an empty bag copies the other side.
  TermVector empty;
  empty.merge(b);
  EXPECT_EQ(empty.entries(), b.entries());
  TermVector unchanged = a;
  unchanged.merge(TermVector());
  EXPECT_EQ(unchanged.entries(), a.entries());
}

}  // namespace
}  // namespace ibseg
