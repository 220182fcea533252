#include "nlp/cm_annotator.h"

#include <cassert>

#include "nlp/pos_tagger.h"
#include "nlp/verb_group.h"

namespace ibseg {
namespace {

// Sentence style per CM_qneg: 0 interrogative, 1 negative, 2 affirmative.
int sentence_style(const std::vector<Token>& tokens,
                   const std::vector<Pos>& tags, const Sentence& s,
                   bool has_negation) {
  // Ends with '?'.
  for (size_t i = s.token_end; i > s.token_begin; --i) {
    const Token& t = tokens[i - 1];
    if (t.kind != TokenKind::kPunctuation) break;
    if (t.lower == "?") return 0;
  }
  // Opens with a wh-word, or with aux/modal inversion ("Do you know...",
  // "Can I...", "Would it...").
  size_t first = s.token_begin;
  while (first < s.token_end &&
         tokens[first].kind == TokenKind::kPunctuation) {
    ++first;
  }
  if (first < s.token_end) {
    if (tags[first] == Pos::kWhWord) return 0;
    if (is_auxiliary(tags[first]) && first + 1 < s.token_end &&
        (tags[first + 1] == Pos::kPronoun1 ||
         tags[first + 1] == Pos::kPronoun2 ||
         tags[first + 1] == Pos::kPronoun3 ||
         tags[first + 1] == Pos::kDeterminer)) {
      return 0;
    }
  }
  return has_negation ? 1 : 2;
}

}  // namespace

std::vector<CmProfile> annotate_sentences(
    const std::vector<Token>& tokens, const std::vector<Pos>& tags,
    const std::vector<Sentence>& sentences) {
  assert(tokens.size() == tags.size());
  std::vector<CmProfile> profiles;
  profiles.reserve(sentences.size());
  for (const Sentence& s : sentences) {
    CmProfile p;
    // Verb groups -> tense + voice.
    std::vector<VerbGroup> groups =
        find_verb_groups(tokens, tags, s.token_begin, s.token_end);
    bool negation_in_groups = false;
    for (const VerbGroup& g : groups) {
      p.add(CmKind::kTense, static_cast<int>(g.tense));
      p.add(CmKind::kVoice, g.voice == Voice::kPassive ? 0 : 1);
      negation_in_groups |= g.negated;
    }
    // Token-level features.
    bool has_negation = negation_in_groups;
    for (size_t i = s.token_begin; i < s.token_end; ++i) {
      switch (tags[i]) {
        case Pos::kPronoun1: p.add(CmKind::kSubject, 0); break;
        case Pos::kPronoun2: p.add(CmKind::kSubject, 1); break;
        case Pos::kPronoun3: p.add(CmKind::kSubject, 2); break;
        case Pos::kNegation: has_negation = true; break;
        case Pos::kNoun:
        case Pos::kNumber: p.add(CmKind::kPos, 1); break;
        case Pos::kAdjective:
        case Pos::kAdverb: p.add(CmKind::kPos, 2); break;
        default:
          if (is_main_verb(tags[i])) p.add(CmKind::kPos, 0);
          break;
      }
    }
    p.add(CmKind::kStyle, sentence_style(tokens, tags, s, has_negation));
    profiles.push_back(p);
  }
  return profiles;
}

std::vector<CmProfile> annotate_sentences(
    const std::vector<Token>& tokens, const std::vector<Sentence>& sentences) {
  return annotate_sentences(tokens, tag_tokens(tokens), sentences);
}

}  // namespace ibseg
