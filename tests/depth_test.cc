// Depth batteries: a Porter reference table (from the published test
// vocabulary), a tagged-sentence corpus for the POS tagger, and a
// randomized inverted-index-vs-brute-force scoring equivalence sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "index/scoring.h"
#include "nlp/pos_tagger.h"
#include "one_cluster_index.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace ibseg {
namespace {

// ----------------------------------------------- Porter reference table ----

struct StemPair {
  const char* word;
  const char* stem;
};

// Entries sampled from Porter's published voc.txt/output.txt reference.
constexpr StemPair kReference[] = {
    {"a", "a"},
    {"abandoned", "abandon"},
    {"abilities", "abil"},
    {"ability", "abil"},
    {"able", "abl"},
    {"absolutely", "absolut"},
    {"absorbed", "absorb"},
    {"accent", "accent"},
    {"accentuate", "accentu"},
    {"accept", "accept"},
    {"accessible", "access"},
    {"accidental", "accident"},
    {"accompanied", "accompani"},
    {"accordance", "accord"},
    {"according", "accord"},
    {"accumulation", "accumul"},
    {"accuracy", "accuraci"},
    {"accurate", "accur"},
    {"achievement", "achiev"},
    {"acknowledgement", "acknowledg"},
    {"acquired", "acquir"},
    {"action", "action"},
    {"activate", "activ"},
    {"actively", "activ"},
    {"adjustable", "adjust"},
    {"administration", "administr"},
    {"admiration", "admir"},
    {"adoption", "adopt"},
    {"advisable", "advis"},
    {"agreement", "agreement"},
    {"alignment", "align"},
    {"allowance", "allow"},
    {"amazement", "amaz"},
    {"amusing", "amus"},
    {"analogous", "analog"},
    {"animated", "anim"},
    {"announcement", "announc"},
    {"annoyance", "annoy"},
    {"anticipation", "anticip"},
    {"apologize", "apolog"},
    {"apparently", "appar"},
    {"appearance", "appear"},
    {"appreciation", "appreci"},
    {"argument", "argument"},
    {"arrangement", "arrang"},
    {"assistance", "assist"},
    {"association", "associ"},
    {"assumption", "assumpt"},
    {"attachment", "attach"},
    {"attention", "attent"},
    {"attitude", "attitud"},
    {"availability", "avail"},
    {"basically", "basic"},
    {"beautiful", "beauti"},
    {"becoming", "becom"},
    {"beginning", "begin"},
    {"believed", "believ"},
    {"capabilities", "capabl"},
    {"carefully", "care"},
    {"cease", "ceas"},
    {"certainly", "certainli"},
    {"characterization", "character"},
    {"cheerfulness", "cheer"},
    {"combination", "combin"},
    {"comfortable", "comfort"},
    {"communication", "commun"},
    {"comparison", "comparison"},
    {"completely", "complet"},
    {"conditionally", "condition"},
    {"connection", "connect"},
    {"consideration", "consider"},
    {"consistency", "consist"},
    {"continuously", "continu"},
    {"creation", "creation"},
    {"darkness", "dark"},
    {"dependent", "depend"},
    {"description", "descript"},
    {"development", "develop"},
    {"difficulties", "difficulti"},
    {"disappointed", "disappoint"},
    {"discussion", "discuss"},
    {"distribution", "distribut"},
    {"effectiveness", "effect"},
    {"electricity", "electr"},
    {"engineering", "engin"},
    {"enjoyment", "enjoy"},
    {"equipment", "equip"},
    {"establishment", "establish"},
    {"exactly", "exactli"},
    {"excitement", "excit"},
    {"explanation", "explan"},
    {"formalize", "formal"},
    {"generalization", "gener"},
    {"happiness", "happi"},
    {"hesitancy", "hesit"},
    {"hopefulness", "hope"},
    {"identification", "identif"},
    {"imagination", "imagin"},
    {"immediately", "immedi"},
    {"importance", "import"},
    {"independence", "independ"},
    {"information", "inform"},
    {"installation", "instal"},
    {"intention", "intent"},
    {"knowledge", "knowledg"},
    {"management", "manag"},
    {"measurement", "measur"},
    {"necessarily", "necessarili"},
    {"observation", "observ"},
    {"operational", "oper"},
    {"organization", "organ"},
    {"possibilities", "possibl"},
    {"probability", "probabl"},
    {"recognition", "recognit"},
    {"recommendation", "recommend"},
    {"relational", "relat"},
    {"replacement", "replac"},
    {"requirement", "requir"},
    {"sensitivity", "sensit"},
    {"successfully", "success"},
    {"triumphantly", "triumphantli"},
};

TEST(PorterReference, TableMatches) {
  for (const StemPair& p : kReference) {
    EXPECT_EQ(porter_stem(p.word), p.stem) << p.word;
  }
}

// --------------------------------------------------- tagged sentence set ----

// Expected coarse tags for hand-checked sentences (word -> tag). Only the
// listed words are asserted; closed-class scaffolding is implicit.
struct TaggedCase {
  const char* sentence;
  std::map<std::string, Pos> expected;
};

const TaggedCase kTaggedCases[] = {
    {"The support team replaced my faulty cable quickly",
     {{"replaced", Pos::kVerbPast},
      {"faulty", Pos::kAdjective},
      {"cable", Pos::kNoun},
      {"quickly", Pos::kAdverb}}},
    {"She will install the update tomorrow",
     {{"will", Pos::kModal},
      {"install", Pos::kVerbBase},
      {"tomorrow", Pos::kAdverb}}},
    {"Has anyone seen this weird behavior",
     {{"seen", Pos::kVerbPastPart}, {"weird", Pos::kAdjective}}},
    {"I am thinking about a new router",
     {{"am", Pos::kAuxBe},
      {"thinking", Pos::kVerbGerund},
      {"router", Pos::kNoun}}},
    {"The booking was cancelled by the hotel",
     {{"booking", Pos::kNoun},
      {"was", Pos::kAuxBe},
      {"cancelled", Pos::kVerbPastPart}}},
    {"We cannot reproduce the crash anymore",
     {{"cannot", Pos::kModal}, {"reproduce", Pos::kVerbBase}}},
    {"They went home and the printer froze again",
     {{"went", Pos::kVerbPast}, {"froze", Pos::kVerbPast}}},
    {"Do not touch the configuration",
     {{"not", Pos::kNegation}, {"touch", Pos::kVerbBase}}},
    {"My happiness depends on a quiet room",
     {{"happiness", Pos::kNoun},
      {"depends", Pos::kVerbPresent3},
      {"quiet", Pos::kAdjective}}},
    {"A wonderful view and a terrible breakfast",
     {{"wonderful", Pos::kAdjective}, {"terrible", Pos::kAdjective}}},
};

TEST(TaggerCorpus, HandCheckedSentences) {
  for (const TaggedCase& c : kTaggedCases) {
    auto tokens = tokenize(c.sentence);
    auto tags = tag_tokens(tokens);
    for (size_t i = 0; i < tokens.size(); ++i) {
      auto it = c.expected.find(tokens[i].lower);
      if (it == c.expected.end()) continue;
      EXPECT_EQ(tags[i], it->second)
          << "'" << tokens[i].lower << "' in: " << c.sentence << " got "
          << pos_name(tags[i]);
    }
  }
}

// --------------------------------------- index vs brute force equivalence ----

class IndexStress : public ::testing::TestWithParam<uint64_t> {};

// Every collection statistic below (df, the NU average, the norm floor,
// the BM25 length pivot, the LM collection model) is derived from the term
// bags alone, so the check does not read the statistics code it tests.
TEST_P(IndexStress, ScoresMatchBruteForce) {
  Rng rng(GetParam());
  const size_t vocab_size = 30;
  const size_t units = 40;

  Vocabulary vocab;
  std::vector<TermId> terms;
  for (size_t t = 0; t < vocab_size; ++t) {
    terms.push_back(vocab.intern("t" + std::to_string(t)));
  }
  OneClusterIndex index;  // default floor: the collection-average norm
  std::vector<TermVector> unit_bags(units);
  for (size_t u = 0; u < units; ++u) {
    size_t num_terms = 1 + rng.next_below(8);
    for (size_t i = 0; i < num_terms; ++i) {
      unit_bags[u].add(terms[rng.next_below(vocab_size)],
                       1.0 + static_cast<double>(rng.next_below(4)));
    }
    index.add_unit(unit_bags[u]);
  }
  index.finalize();

  TermVector query;
  for (int i = 0; i < 4; ++i) {
    query.add(terms[rng.next_below(vocab_size)], 1.0);
  }

  // Collection statistics from the bags.
  const double n = static_cast<double>(units);
  std::map<TermId, double> df;
  std::map<TermId, double> ctf;
  double collection_length = 0.0;
  double unique_sum = 0.0;
  std::vector<double> length(units);
  std::vector<double> norm(units);
  for (size_t u = 0; u < units; ++u) {
    for (const auto& [term, tf] : unit_bags[u].entries()) {
      df[term] += 1.0;
      ctf[term] += tf;
      length[u] += tf;
      norm[u] += std::log(tf) + 1.0;
    }
    collection_length += length[u];
    unique_sum += static_cast<double>(unit_bags[u].num_terms());
  }
  const double avg_unique = unique_sum / n;
  const double avg_length = collection_length / n;
  double norm_sum = 0.0;
  for (size_t u = 0; u < units; ++u) {
    norm[u] *= 0.25 + 0.75 * static_cast<double>(unit_bags[u].num_terms()) /
                          avg_unique;
    norm_sum += norm[u];
  }
  for (double& v : norm) v = std::max(v, norm_sum / n);

  auto check = [&](ScoringFunction fn, auto contribution) {
    ScoringOptions options;
    options.function = fn;
    std::map<uint32_t, double> by_unit;
    for (const ScoredUnit& h : index.score(query, options)) {
      by_unit[h.unit] = h.score;
    }
    for (uint32_t u = 0; u < units; ++u) {
      double expected = 0.0;
      for (const auto& [term, f_q] : query.entries()) {
        double tf = unit_bags[u].weight(term);
        if (tf > 0.0) expected += f_q * contribution(term, tf, u);
      }
      auto it = by_unit.find(u);
      double got = it == by_unit.end() ? 0.0 : it->second;
      EXPECT_NEAR(got, expected, 1e-9)
          << "unit " << u << " fn " << static_cast<int>(fn);
    }
  };
  // Eq. 8/9: w = (log tf + 1) / norm, pidf = log(n - df + 0.5) / (df + 0.5)
  // floored at 0.
  check(ScoringFunction::kPaperTfIdf, [&](TermId term, double tf, size_t u) {
    double pidf = std::max(
        0.0, std::log(n - df[term] + 0.5) / (df[term] + 0.5));
    return (std::log(tf) + 1.0) / norm[u] * pidf;
  });
  // BM25, k1 = 1.2, b = 0.75.
  check(ScoringFunction::kBm25, [&](TermId term, double tf, size_t u) {
    double idf = std::log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5));
    double k = 1.2 * (1.0 - 0.75 + 0.75 * length[u] / avg_length);
    return idf * (tf * 2.2) / (tf + k);
  });
  // Jelinek-Mercer query likelihood, lambda = 0.7, sparse form.
  check(ScoringFunction::kQueryLikelihood,
        [&](TermId term, double tf, size_t u) {
          return std::log(1.0 + (0.3 * tf / length[u]) /
                                    (0.7 * ctf[term] / collection_length));
        });
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ibseg
