#ifndef IBSEG_SEG_DOCUMENT_H_
#define IBSEG_SEG_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nlp/cm_profile.h"
#include "nlp/pos_tag.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace ibseg {

/// Dense document identifier within a corpus.
using DocId = uint32_t;

/// A fully analyzed forum post: cleaned text, tokens, POS tags, sentences
/// (the segmentation text units) and one CmProfile per sentence. Built
/// once per post by analyze() and immutable afterwards.
///
/// A Document is a handle: the analysis lives in one immutable payload
/// that every copy shares, so copying a document (a shard capture, a
/// recluster's shadow generation, an oracle built over the same corpus)
/// copies a pointer, never the tokens and profiles. The handle is never
/// null: a default-constructed or moved-from document points at one
/// shared empty payload.
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
  const std::vector<Token>& tokens() const { return a_->tokens; }
  const std::vector<Pos>& tags() const { return a_->tags; }
  const std::vector<Sentence>& sentences() const { return a_->sentences; }

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

  /// Bytes the shared analysis payload holds: the payload object plus the
  /// allocated capacity of its text, token, tag, sentence and profile
  /// arrays and every out-of-line token form. Fixed at analyze(); every
  /// copy of a document reports the same payload.
  size_t footprint_bytes() const { return a_->footprint_bytes; }

 private:
  struct Analysis {
    DocId id = 0;
    std::string text;
    std::vector<Token> tokens;
    std::vector<Pos> tags;
    std::vector<Sentence> sentences;
    std::vector<CmProfile> unit_profiles;
    /// prefix_profiles[i] = sum of unit_profiles[0, i); size num_units+1.
    std::vector<CmProfile> prefix_profiles;
    size_t footprint_bytes = 0;
  };

  explicit Document(std::shared_ptr<const Analysis> a) : a_(std::move(a)) {}

  /// The one payload every empty document shares.
  static const std::shared_ptr<const Analysis>& empty_analysis();

  std::shared_ptr<const Analysis> a_;
};

}  // namespace ibseg

#endif  // IBSEG_SEG_DOCUMENT_H_
