#ifndef IBSEG_INDEX_FLAT_POSTINGS_H_
#define IBSEG_INDEX_FLAT_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace ibseg {

/// A posting: a unit (segment or whole document, depending on which matcher
/// owns the index) and the term frequency within it.
struct Posting {
  uint32_t unit = 0;
  double tf = 0.0;
};

/// Per-term metadata of the sealed serving form: where the term's two runs
/// start and how long they are.
struct FlatTermMeta {
  uint32_t df = 0;           ///< postings count (|units| containing the term)
  uint32_t ones = 0;         ///< how many of them have tf exactly 1
  uint32_t ones_offset = 0;  ///< first entry of the term's tf = 1 run
  uint32_t tfs_offset = 0;   ///< first entry of the term's other-tf run
};

/// A posting keyed by its term: how an InvertedIndex holds the postings of
/// the units added since its last seal.
struct TermPosting {
  TermId term = 0;
  uint32_t unit = 0;
  double tf = 0.0;
};

/// One term's sealed postings, both runs in ascending unit order.
struct TermRuns {
  std::span<const uint32_t> ones;  ///< units whose tf is exactly 1
  std::span<const Posting> tfs;    ///< (unit, tf) for every other tf
};

/// The inverted index's *serving* form: every term's postings split into
/// two fixed-width runs, laid out term after term (ascending TermId) in
/// two contiguous arrays:
///
///  * the ids of the units whose tf is exactly 1.0 (most postings of a
///    forum corpus — the scoring kernel scores them with a per-unit
///    operand precomputed for tf = 1, scoring.h);
///  * (unit, tf) pairs for every other tf, the double stored as is.
///
/// Nothing is encoded, so a scan reads back exactly the tf doubles the
/// units were added with, which the bit-identity contract of the
/// differential suite depends on.
///
/// The structure is immutable once sealed. InvertedIndex::finalize()
/// seals a new one from the previous seal plus the postings of the units
/// added since; add_unit() marks the index un-finalized, so the flat form
/// can never serve stale postings across an ingest (the publication
/// machinery re-finalizes touched cluster indices before publishing).
class FlatPostings {
 public:
  FlatPostings() = default;

  /// Seals `sealed`'s runs with `added` appended, term by term. `added`
  /// must be sorted by (term, unit), and each of its units must be greater
  /// than every unit `sealed` holds (InvertedIndex assigns unit ids in
  /// insertion order), so every term's runs stay in ascending unit order
  /// and come out exactly as one seal over all of its postings lays them.
  static FlatPostings seal(const FlatPostings& sealed,
                           std::span<const TermPosting> added);

  /// Metadata for `term`; nullptr when the term is absent.
  const FlatTermMeta* term_meta(TermId term) const;

  /// The runs `meta` describes; `meta` must come from this object's
  /// term_meta().
  TermRuns runs(const FlatTermMeta& meta) const {
    return TermRuns{
        std::span<const uint32_t>(ones_.data() + meta.ones_offset, meta.ones),
        std::span<const Posting>(tfs_.data() + meta.tfs_offset,
                                 meta.df - meta.ones)};
  }

  /// `term`'s runs (both empty when the term is absent).
  TermRuns runs(TermId term) const;

  /// Number of distinct terms sealed.
  size_t num_terms() const { return meta_.size(); }

  /// Total in-memory footprint: both runs + the per-term metadata table
  /// (the ibseg_postings_bytes input).
  size_t total_bytes() const {
    return ones_.size() * sizeof(uint32_t) + tfs_.size() * sizeof(Posting) +
           meta_.size() * (sizeof(TermId) + sizeof(FlatTermMeta));
  }

 private:
  std::vector<uint32_t> ones_;
  std::vector<Posting> tfs_;
  /// (TermId, meta) sorted by TermId; lookups binary-search.
  std::vector<std::pair<TermId, FlatTermMeta>> meta_;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_FLAT_POSTINGS_H_
