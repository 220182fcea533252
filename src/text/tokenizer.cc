#include "text/tokenizer.h"

#include <array>

#include "util/strings.h"

namespace ibseg {
namespace {

bool is_word_char(char c) { return is_ascii_alpha(c); }

bool is_space_char(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

// Clitics that detach from the host word when split_contractions is set.
// "n't" is handled separately because it consumes a character of the host.
constexpr std::array<std::string_view, 6> kApostropheClitics = {
    "'s", "'m", "'re", "'ve", "'ll", "'d"};

Token make_token(std::string_view text, size_t begin, size_t end,
                 TokenKind kind) {
  Token t;
  t.lower = to_lower(text.substr(begin, end - begin));
  t.kind = kind;
  t.begin = begin;
  t.end = end;
  return t;
}

// If the word token [begin,end) ends with a contraction clitic, returns the
// offset where the clitic starts; otherwise returns `end`.
size_t clitic_start(std::string_view text, size_t begin, size_t end) {
  std::string lower = to_lower(text.substr(begin, end - begin));
  if (lower.size() >= 3 && ends_with(lower, "n't")) {
    return end - 3;
  }
  for (std::string_view clitic : kApostropheClitics) {
    if (lower.size() > clitic.size() && ends_with(lower, clitic)) {
      return end - clitic.size();
    }
  }
  return end;
}

}  // namespace

std::vector<Token> tokenize(std::string_view text,
                            const TokenizerOptions& options) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (is_space_char(c)) {
      ++i;
      continue;
    }
    if (is_word_char(c)) {
      size_t begin = i;
      while (i < n) {
        if (is_word_char(text[i])) {
          ++i;
        } else if ((text[i] == '\'' || text[i] == '-') && i + 1 < n &&
                   is_word_char(text[i + 1])) {
          // Internal apostrophe/hyphen stays inside the word.
          i += 2;
        } else {
          break;
        }
      }
      size_t end = i;
      if (options.split_contractions) {
        size_t split = clitic_start(text, begin, end);
        if (split > begin && split < end) {
          tokens.push_back(make_token(text, begin, split, TokenKind::kWord));
          tokens.push_back(make_token(text, split, end, TokenKind::kWord));
          continue;
        }
      }
      tokens.push_back(make_token(text, begin, end, TokenKind::kWord));
      continue;
    }
    if (is_ascii_digit(c)) {
      size_t begin = i;
      while (i < n &&
             (is_ascii_digit(text[i]) ||
              (text[i] == '.' && i + 1 < n && is_ascii_digit(text[i + 1])))) {
        ++i;
      }
      // Attach a trailing unit suffix ("320GB", "1TB") to the number token.
      while (i < n && is_word_char(text[i])) ++i;
      tokens.push_back(make_token(text, begin, i, TokenKind::kNumber));
      continue;
    }
    if (options.emit_punctuation) {
      tokens.push_back(make_token(text, i, i + 1, TokenKind::kPunctuation));
    }
    ++i;
  }
  return tokens;
}

std::vector<std::string> word_tokens(std::string_view text) {
  std::vector<std::string> out;
  for (const Token& t : tokenize(text)) {
    if (t.kind == TokenKind::kWord) out.push_back(t.lower);
  }
  return out;
}

}  // namespace ibseg
