#include "text/sentence_splitter.h"

#include <array>
#include <string_view>

namespace ibseg {
namespace {

constexpr std::array<std::string_view, 12> kAbbreviations = {
    "e.g", "i.e", "etc", "mr", "mrs", "dr", "vs", "fig", "no", "st", "jr",
    "sr"};

bool is_abbreviation(const std::string& lower) {
  for (std::string_view a : kAbbreviations) {
    if (lower == a) return true;
  }
  // Single letters ("J. Smith") rarely end sentences.
  return lower.size() == 1;
}

bool is_terminator(const Token& t) {
  return t.kind == TokenKind::kPunctuation &&
         (t.lower == "." || t.lower == "!" || t.lower == "?");
}

// True when a newline separates the spans [prev.end, next.begin).
bool newline_between(std::string_view source, const Token& prev,
                     const Token& next) {
  for (size_t i = prev.end; i < next.begin && i < source.size(); ++i) {
    if (source[i] == '\n') return true;
  }
  return false;
}

}  // namespace

std::vector<Sentence> split_sentences(const std::vector<Token>& tokens,
                                      std::string_view source_text) {
  std::vector<Sentence> sentences;
  if (tokens.empty()) return sentences;

  size_t begin = 0;
  auto flush = [&](size_t end) {
    if (end <= begin) return;
    Sentence s;
    s.token_begin = begin;
    s.token_end = end;
    s.char_begin = tokens[begin].begin;
    s.char_end = tokens[end - 1].end;
    sentences.push_back(s);
    begin = end;
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (is_terminator(t)) {
      if (t.lower == "." && i > 0 && tokens[i - 1].is_word() &&
          is_abbreviation(tokens[i - 1].lower)) {
        continue;  // "e.g." — not a boundary
      }
      // Fold terminator runs ("?!", "...") into one boundary.
      size_t j = i;
      while (j + 1 < tokens.size() && is_terminator(tokens[j + 1])) ++j;
      flush(j + 1);
      i = j;
      continue;
    }
    // Newline-as-terminator for forum posts lacking final punctuation.
    if (i + 1 < tokens.size() &&
        newline_between(source_text, t, tokens[i + 1])) {
      flush(i + 1);
    }
  }
  flush(tokens.size());
  return sentences;
}

}  // namespace ibseg
