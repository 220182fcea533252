#ifndef IBSEG_TEXT_TERM_VECTOR_H_
#define IBSEG_TEXT_TERM_VECTOR_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ibseg {

/// Sparse bag-of-words with double weights: a flat array of (term,
/// weight) entries in strictly ascending TermId order, so merges are
/// linear and every sum over the entries adds them in TermId order. Used
/// by the per-intention indices, the TextTiling baseline, the Content-MR
/// clustering and the TF/IDF machinery.
class TermVector {
 public:
  using Entry = std::pair<TermId, double>;

  TermVector() = default;

  /// Adds `weight` to the entry for `term`.
  void add(TermId term, double weight = 1.0);

  /// Weight of `term` (0 when absent).
  double weight(TermId term) const;

  /// Number of distinct terms.
  size_t num_terms() const { return weights_.size(); }

  /// Sum of all weights (the "length" for tf purposes).
  double total_weight() const;

  bool empty() const { return weights_.empty(); }

  /// Cosine similarity between sparse vectors; 0 when either is empty.
  static double cosine(const TermVector& a, const TermVector& b);

  /// Merges `other` into this (element-wise sum).
  void merge(const TermVector& other);

  /// The bag in which each term of `terms` (any order, repeats allowed)
  /// weighs its number of occurrences, held in an exact-size array.
  static TermVector count(std::vector<TermId> terms);

  /// The (term, weight) entries, strictly ascending by term.
  const std::vector<Entry>& entries() const { return weights_; }

 private:
  std::vector<Entry> weights_;
};

/// Appends the term of every indexable token in [begin, end) to `*out`,
/// in token order: words stemmed and stopword-filtered, numbers verbatim,
/// punctuation skipped. Interns new terms into `vocab`.
void append_term_ids(const std::vector<Token>& tokens, size_t begin,
                     size_t end, Vocabulary& vocab, std::vector<TermId>* out);

/// Builds a stemmed, stopword-filtered term vector from word tokens in
/// [begin, end) (the terms append_term_ids yields, counted). Interns new
/// terms into `vocab`.
TermVector build_term_vector(const std::vector<Token>& tokens, size_t begin,
                             size_t end, Vocabulary& vocab);

/// Read-only variant for query paths: terms missing from `vocab` are
/// dropped instead of interned. A term unknown to the build vocabulary
/// cannot match any indexed unit, so lookups lose nothing — and the query
/// path stays `const`, which is what lets N query threads share the serving
/// layer's read lock without synchronizing on the vocabulary.
TermVector build_term_vector_lookup(const std::vector<Token>& tokens,
                                    size_t begin, size_t end,
                                    const Vocabulary& vocab);

}  // namespace ibseg

#endif  // IBSEG_TEXT_TERM_VECTOR_H_
