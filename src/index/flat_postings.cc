#include "index/flat_postings.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "index/inverted_index.h"

namespace ibseg {

namespace {

/// Largest integral tf stored in the varint fast path; anything above (or
/// non-integral) takes the raw-bits branch. 2^62 keeps (tf << 1 | 1)
/// inside uint64.
constexpr double kMaxVarintTf = 4611686018427387904.0;  // 2^62

}  // namespace

void FlatPostings::append_varint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void FlatPostings::append_posting(std::vector<uint8_t>* out, uint32_t unit,
                                  double tf, uint32_t prev_unit, bool first) {
  if (first) {
    append_varint(out, unit);
  } else {
    assert(unit > prev_unit);
    append_varint(out, static_cast<uint64_t>(unit) - prev_unit);
  }
  // tf encoding: integral positive tf as varint(tf << 1 | 1); everything
  // else as the raw-bits escape varint(0) + 8 LE bytes. Both branches
  // round-trip the exact double.
  if (tf > 0.0 && tf < kMaxVarintTf && tf == std::floor(tf)) {
    append_varint(out, (static_cast<uint64_t>(tf) << 1) | 1);
  } else {
    append_varint(out, 0);
    uint64_t bits = 0;
    std::memcpy(&bits, &tf, 8);
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
}

bool FlatPostings::decode_run(const uint8_t* data, size_t size, uint32_t df,
                              std::vector<Posting>* out,
                              FlatDecodeStats* stats) {
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  // Allocation guard: a posting costs at least 2 bytes (one delta byte +
  // one tf byte), so an untrusted df larger than size/2 + 1 is lying about
  // the buffer — reserve from the *byte budget*, never from df alone.
  out->reserve(out->size() +
               std::min<size_t>(df, size / 2 + 1));
  uint32_t prev = 0;
  for (uint32_t i = 0; i < df; ++i) {
    uint64_t delta = 0;
    if (!read_varint(&p, end, &delta)) return false;
    uint64_t unit;
    if (i == 0) {
      unit = delta;
    } else {
      if (delta == 0) return false;  // units are strictly ascending
      unit = static_cast<uint64_t>(prev) + delta;
    }
    if (unit > 0xffffffffull) return false;
    double tf = 0.0;
    if (!read_tf(&p, end, &tf)) return false;
    out->push_back(Posting{static_cast<uint32_t>(unit), tf});
    prev = static_cast<uint32_t>(unit);
    if (stats != nullptr) ++stats->postings;
  }
  if (p != end) return false;  // trailing bytes: not a sealed run
  if (stats != nullptr) stats->bytes = size;
  return true;
}

FlatPostings FlatPostings::seal(
    const std::vector<std::pair<TermId, const std::vector<Posting>*>>&
        term_postings) {
  FlatPostings flat;
  flat.meta_.reserve(term_postings.size());
  // Pre-size the arena roughly (2 bytes per posting is the floor); the
  // vector still grows as needed but mostly in one step.
  size_t postings_total = 0;
  for (const auto& [term, plist] : term_postings) {
    (void)term;
    postings_total += plist->size();
  }
  flat.arena_.reserve(postings_total * 3);
  for (const auto& [term, plist] : term_postings) {
    if (plist->empty()) continue;
    FlatTermMeta meta;
    meta.df = static_cast<uint32_t>(plist->size());
    meta.offset = flat.arena_.size();
    uint32_t prev = 0;
    bool first = true;
    for (const Posting& p : *plist) {
      append_posting(&flat.arena_, p.unit, p.tf, prev, first);
      prev = p.unit;
      first = false;
    }
    meta.bytes = flat.arena_.size() - meta.offset;
    flat.meta_.emplace_back(term, meta);
  }
  std::sort(flat.meta_.begin(), flat.meta_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return flat;
}

const FlatTermMeta* FlatPostings::term_meta(TermId term) const {
  auto it = std::lower_bound(
      meta_.begin(), meta_.end(), term,
      [](const auto& entry, TermId t) { return entry.first < t; });
  if (it == meta_.end() || it->first != term) return nullptr;
  return &it->second;
}

FlatPostings::Cursor FlatPostings::cursor(TermId term) const {
  const FlatTermMeta* meta = term_meta(term);
  return meta == nullptr ? Cursor() : cursor(*meta);
}

FlatPostings::Cursor FlatPostings::cursor(const FlatTermMeta& meta) const {
  Cursor c;
  c.p_ = arena_.data() + meta.offset;
  c.end_ = c.p_ + meta.bytes;
  c.remaining_ = meta.df;
  return c;
}

std::vector<uint8_t> FlatPostings::term_run_bytes(TermId term) const {
  const FlatTermMeta* meta = term_meta(term);
  if (meta == nullptr) return {};
  return std::vector<uint8_t>(arena_.begin() + static_cast<long>(meta->offset),
                              arena_.begin() +
                                  static_cast<long>(meta->offset +
                                                    meta->bytes));
}

}  // namespace ibseg
