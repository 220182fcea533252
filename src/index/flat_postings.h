#ifndef IBSEG_INDEX_FLAT_POSTINGS_H_
#define IBSEG_INDEX_FLAT_POSTINGS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "text/vocabulary.h"

namespace ibseg {

struct Posting;

/// Per-term metadata of the sealed serving form: where the term's run lives
/// in the arena and how many postings it holds. The query path needs
/// nothing else: the dense scoring kernel (scoring.h) scores every posting.
struct FlatTermMeta {
  uint32_t df = 0;          ///< postings count (|units| containing the term)
  uint64_t offset = 0;      ///< byte offset of the term's run in the arena
  uint64_t bytes = 0;       ///< encoded byte length of the run
};

/// Counters reported by the bounded decoder (diagnostics and fuzzing).
struct FlatDecodeStats {
  size_t postings = 0;  ///< postings decoded
  size_t bytes = 0;     ///< bytes consumed
};

/// The inverted index's *serving* form: every term's postings laid out in
/// one contiguous arena, unit ids delta/varint-encoded and term
/// frequencies encoded exactly (integral tf as a varint, anything else as
/// the raw IEEE-754 bit pattern — decode returns the identical double
/// either way, which the bit-identity contract of the differential suite
/// depends on).
///
/// The structure is sealed from a finalized InvertedIndex and immutable
/// afterwards; add_unit() marks the owning index un-finalized, and the
/// next finalize() re-seals a fresh arena — the flat form can never serve
/// stale postings across an ingest (the epoch/publication machinery
/// re-finalizes touched cluster indices before publishing).
class FlatPostings {
 public:
  FlatPostings() = default;

  /// Seals the serving form: one arena run per term in ascending TermId
  /// order. `postings_of(term)` must yield postings with strictly
  /// ascending unit ids (InvertedIndex appends units in insertion order).
  static FlatPostings seal(
      const std::vector<std::pair<TermId, const std::vector<Posting>*>>&
          term_postings);

  /// Metadata for `term`; nullptr when the term is absent.
  const FlatTermMeta* term_meta(TermId term) const;

  /// Forward-only decoder over one term's run. Bounds-checked: next()
  /// never reads outside the term's [offset, offset + bytes) window.
  /// next() is defined inline below: it is the scoring kernel's
  /// per-posting step.
  class Cursor {
   public:
    Cursor() = default;

    /// True while a posting is available; fills (unit, tf).
    bool next(uint32_t* unit, double* tf);

    /// True when all postings have been consumed.
    bool done() const { return remaining_ == 0; }

   private:
    friend class FlatPostings;
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    uint32_t remaining_ = 0;
    uint32_t prev_unit_ = 0;
  };

  /// Decoder positioned at the start of `term`'s run (empty cursor when
  /// the term is absent).
  Cursor cursor(TermId term) const;

  /// Decoder over the run `meta` describes; `meta` must come from this
  /// object's term_meta() (saves the second lookup when the caller
  /// already holds it).
  Cursor cursor(const FlatTermMeta& meta) const;

  /// Number of distinct terms sealed.
  size_t num_terms() const { return meta_.size(); }

  /// Arena size in bytes (the ibseg_postings_bytes input).
  size_t arena_bytes() const { return arena_.size(); }

  /// Total in-memory footprint: arena + per-term metadata table.
  size_t total_bytes() const {
    return arena_.size() +
           meta_.size() * (sizeof(TermId) + sizeof(FlatTermMeta));
  }

  /// Raw arena bytes of one term's run (empty when absent) — seed material
  /// for the decoder fuzz target and the golden-encoding tests.
  std::vector<uint8_t> term_run_bytes(TermId term) const;

  // --- Codec, exposed for tests and the fuzz target. -------------------

  /// Appends the unsigned LEB128 encoding of `value` to `out`.
  static void append_varint(std::vector<uint8_t>* out, uint64_t value);

  /// Appends one posting (delta from `prev_unit`, or the raw unit id when
  /// `first`) to `out`. tf encoding: a positive integral tf < 2^62 is
  /// stored as varint(tf << 1 | 1); anything else as varint(0) followed by
  /// the 8 little-endian bytes of the double's bit pattern. Decoding
  /// reproduces the identical double in both branches.
  static void append_posting(std::vector<uint8_t>* out, uint32_t unit,
                             double tf, uint32_t prev_unit, bool first);

  /// Bounded decode of an untrusted run: reads at most `size` bytes and at
  /// most `df` postings into `out`, appending. Returns false (leaving any
  /// partial decode in `out`) on truncation, varint overflow, unit-id
  /// overflow past 2^32, or trailing bytes after the df-th posting.
  /// Never allocates more than min(df, size) postings — an inflated df
  /// against a short buffer cannot over-reserve (the snapshot-reader
  /// allocation-bomb lesson, PR 5).
  static bool decode_run(const uint8_t* data, size_t size, uint32_t df,
                         std::vector<Posting>* out,
                         FlatDecodeStats* stats = nullptr);

 private:
  /// Bounded LEB128 read: advances *p, fails on truncation or > 10 bytes.
  static bool read_varint(const uint8_t** p, const uint8_t* end,
                          uint64_t* value);
  /// Reads one tf field (either encoding branch), advancing *p.
  static bool read_tf(const uint8_t** p, const uint8_t* end, double* tf);

  std::vector<uint8_t> arena_;
  /// (TermId, meta) sorted by TermId; lookups binary-search.
  std::vector<std::pair<TermId, FlatTermMeta>> meta_;
};

inline bool FlatPostings::read_varint(const uint8_t** p, const uint8_t* end,
                                      uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    uint8_t byte = **p;
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject overlong encodings that would have shifted bits past 64.
      if (shift == 63 && (byte & 0x7e) != 0) return false;
      *value = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or overlong
}

inline bool FlatPostings::read_tf(const uint8_t** p, const uint8_t* end,
                                  double* tf) {
  uint64_t v = 0;
  if (!read_varint(p, end, &v)) return false;
  if ((v & 1) != 0) {
    uint64_t integral = v >> 1;
    if (integral == 0) return false;  // tf 0 never appears in a posting
    *tf = static_cast<double>(integral);
    return true;
  }
  if (v != 0) return false;  // even tags other than the raw marker: invalid
  if (end - *p < 8) return false;
  uint64_t bits = 0;
  std::memcpy(&bits, *p, 8);
  *p += 8;
  std::memcpy(tf, &bits, 8);
  return true;
}

inline bool FlatPostings::Cursor::next(uint32_t* unit, double* tf) {
  if (remaining_ == 0) return false;
  // Fast path: a one-byte delta and a one-byte integral tf in [1, 63] —
  // the common posting. It decodes exactly what the general path below
  // would.
  if (end_ - p_ >= 2 && ((p_[0] | p_[1]) & 0x80) == 0 && (p_[1] & 1) != 0 &&
      p_[1] > 1) {
    const uint64_t u = static_cast<uint64_t>(prev_unit_) + p_[0];
    if (u <= 0xffffffffull) {
      prev_unit_ = static_cast<uint32_t>(u);
      *unit = prev_unit_;
      *tf = static_cast<double>(p_[1] >> 1);
      p_ += 2;
      --remaining_;
      return true;
    }
  }
  uint64_t delta = 0;
  if (!read_varint(&p_, end_, &delta)) {
    remaining_ = 0;  // corrupt arena: stop rather than over-read
    assert(false && "flat postings arena corrupt (truncated varint)");
    return false;
  }
  // The first posting stores its raw unit id: prev_unit_ starts at 0.
  const uint64_t u = static_cast<uint64_t>(prev_unit_) + delta;
  double value = 0.0;
  if (u > 0xffffffffull || !read_tf(&p_, end_, &value)) {
    remaining_ = 0;
    assert(false && "flat postings arena corrupt (bad posting)");
    return false;
  }
  prev_unit_ = static_cast<uint32_t>(u);
  *unit = prev_unit_;
  *tf = value;
  --remaining_;
  return true;
}

}  // namespace ibseg

#endif  // IBSEG_INDEX_FLAT_POSTINGS_H_
