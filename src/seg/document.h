#ifndef IBSEG_SEG_DOCUMENT_H_
#define IBSEG_SEG_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nlp/cm_profile.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace ibseg {

/// Dense document identifier within a corpus.
using DocId = uint32_t;

/// A fully analyzed forum post: cleaned text, tokens, sentences (the
/// segmentation text units) and one CmProfile per sentence. Built once
/// per post by analyze() and immutable afterwards. The POS tags analyze()
/// computes feed the CM annotator and are not kept.
///
/// A Document is a handle to two immutable payloads that every copy
/// shares: the resident analysis (id, text, sentences, unit and prefix CM
/// profiles) and the token array. Copying a document (a shard capture, a
/// recluster's shadow generation, an oracle built over the same corpus)
/// copies two pointers, never the tokens and profiles. The analysis
/// handle is never null: a default-constructed or moved-from document
/// points at one shared empty payload.
///
/// The token array is read only while a post is indexed, so the serving
/// layer drops it from its own handles once the post's term bags exist
/// (drop_tokens). A later re-index reads index_tokens(), which tokenizes
/// text() again when the array is gone; tokens() on such a handle throws.
class Document {
 public:
  /// An empty document (no text, no units); useful as a container
  /// placeholder before analyze() results are moved in.
  Document();
  Document(const Document&) = default;
  Document& operator=(const Document&) = default;
  /// Moves are written out (the defaults would leave a null payload):
  /// the source is left empty, or holding the target's old payload.
  Document(Document&& other) noexcept;
  Document& operator=(Document&& other) noexcept;

  /// Analyzes `text` (plain text; run strip_html first for raw forum dumps).
  static Document analyze(DocId id, std::string text);

  DocId id() const { return a_->id; }
  const std::string& text() const { return a_->text; }
  /// The token array. Throws std::logic_error when this handle dropped it
  /// (drop_tokens): an empty array would silently index nothing.
  const std::vector<Token>& tokens() const;
  const std::vector<Sentence>& sentences() const { return a_->sentences; }

  /// The token array for indexing: the held one, or — once dropped —
  /// `text()` tokenized again. Tokenizing is deterministic, so both are
  /// the same tokens and the sentences' token ranges index either.
  std::shared_ptr<const std::vector<Token>> index_tokens() const;

  /// True while this handle holds the token array.
  bool holds_tokens() const { return tokens_ != nullptr; }

  /// Releases this handle's token array (freed with its last holder).
  void drop_tokens() { tokens_.reset(); }

  /// Number of text units (sentences).
  size_t num_units() const { return a_->sentences.size(); }

  /// CM profile of sentence `u`.
  const CmProfile& unit_profile(size_t u) const {
    return a_->unit_profiles[u];
  }

  /// Merged CM profile over sentence range [begin, end) — the distribution
  /// tables DSb_CM of a candidate segment (Sec. 5.2). O(1) via prefix sums.
  CmProfile range_profile(size_t begin, size_t end) const;

  /// Merged CM profile of the whole document (DSb* of Eq. 6).
  CmProfile document_profile() const { return range_profile(0, num_units()); }

  /// Character offset in `text()` where a border *before* unit `u` falls
  /// (the start of sentence u). Used for offset-based agreement metrics.
  size_t border_char_offset(size_t u) const;

  /// Concatenated source text of the sentence range [begin, end).
  std::string_view range_text(size_t begin, size_t end) const;

  /// Bytes of the resident analysis: the payload object plus the
  /// allocated capacity of its text, sentence and profile arrays. The
  /// token array is not counted (a published post no longer holds it).
  /// Fixed at analyze(); every copy of a document reports the same bytes.
  size_t footprint_bytes() const { return a_->footprint_bytes; }

 private:
  struct Analysis {
    DocId id = 0;
    std::string text;
    std::vector<Sentence> sentences;
    std::vector<CmProfile> unit_profiles;
    /// prefix_profiles[i] = sum of unit_profiles[0, i); size num_units+1.
    std::vector<CmProfile> prefix_profiles;
    size_t footprint_bytes = 0;
  };
  using Tokens = std::shared_ptr<const std::vector<Token>>;

  Document(std::shared_ptr<const Analysis> a, Tokens tokens)
      : a_(std::move(a)), tokens_(std::move(tokens)) {}

  /// The payloads every empty document shares.
  static const std::shared_ptr<const Analysis>& empty_analysis();
  static const Tokens& empty_tokens();

  std::shared_ptr<const Analysis> a_;
  /// Null once dropped.
  Tokens tokens_;
};

}  // namespace ibseg

#endif  // IBSEG_SEG_DOCUMENT_H_
