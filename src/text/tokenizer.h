#ifndef IBSEG_TEXT_TOKENIZER_H_
#define IBSEG_TEXT_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ibseg {

/// Lexical category of a token.
enum class TokenKind {
  kWord,         // alphabetic, possibly with internal apostrophe/hyphen
  kNumber,       // digits, possibly with ., e.g. "320", "5.5.3"
  kPunctuation,  // single punctuation character
};

/// One token of a document: its lowercased form and its character span in
/// the cleaned source text (the paper's annotation tool measures border
/// agreement in character offsets, so spans must be exact). The surface
/// form is not stored: it is `text.substr(begin, end - begin)` of the
/// tokenized text, and for punctuation it equals `lower`.
struct Token {
  std::string lower;   ///< ASCII-lowercased form.
  TokenKind kind = TokenKind::kWord;
  size_t begin = 0;    ///< Byte offset of the first character.
  size_t end = 0;      ///< Byte offset one past the last character.

  bool is_word() const { return kind == TokenKind::kWord; }
};

/// Options controlling tokenization.
struct TokenizerOptions {
  /// Split clitic contractions into separate tokens ("didn't" -> "did",
  /// "n't"; "I'm" -> "I", "'m"). The CM annotator relies on this to see
  /// negation and subject pronouns. Default on.
  bool split_contractions = true;
  /// Keep single punctuation marks as tokens (needed for sentence splitting
  /// and the interrogative-style feature). Default on.
  bool emit_punctuation = true;
};

/// Splits `text` into tokens. Words may contain internal apostrophes and
/// hyphens ("don't", "e-mail"); runs of digits with internal dots form
/// number tokens ("5.5.3"); every other non-space character is punctuation.
std::vector<Token> tokenize(std::string_view text,
                            const TokenizerOptions& options = {});

/// Convenience: lowercased word tokens only (no punctuation, no numbers).
std::vector<std::string> word_tokens(std::string_view text);

}  // namespace ibseg

#endif  // IBSEG_TEXT_TOKENIZER_H_
