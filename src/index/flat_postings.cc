#include "index/flat_postings.h"

#include <algorithm>
#include <cassert>

namespace ibseg {

FlatPostings FlatPostings::seal(
    const std::vector<std::pair<TermId, const std::vector<Posting>*>>&
        term_postings) {
  FlatPostings flat;
  flat.meta_.reserve(term_postings.size());
  size_t postings_total = 0;
  size_t ones_total = 0;
  for (const auto& [term, plist] : term_postings) {
    (void)term;
    postings_total += plist->size();
    for (const Posting& p : *plist) ones_total += p.tf == 1.0;
  }
  flat.ones_.reserve(ones_total);
  flat.tfs_.reserve(postings_total - ones_total);
  for (const auto& [term, plist] : term_postings) {
    if (plist->empty()) continue;
    assert(flat.meta_.empty() || flat.meta_.back().first < term);
    FlatTermMeta meta;
    meta.df = static_cast<uint32_t>(plist->size());
    meta.ones_offset = static_cast<uint32_t>(flat.ones_.size());
    meta.tfs_offset = static_cast<uint32_t>(flat.tfs_.size());
    for (const Posting& p : *plist) {
      if (p.tf == 1.0) {
        flat.ones_.push_back(p.unit);
      } else {
        flat.tfs_.push_back(p);
      }
    }
    meta.ones = static_cast<uint32_t>(flat.ones_.size()) - meta.ones_offset;
    flat.meta_.emplace_back(term, meta);
  }
  return flat;
}

const FlatTermMeta* FlatPostings::term_meta(TermId term) const {
  auto it = std::lower_bound(
      meta_.begin(), meta_.end(), term,
      [](const auto& entry, TermId t) { return entry.first < t; });
  if (it == meta_.end() || it->first != term) return nullptr;
  return &it->second;
}

TermRuns FlatPostings::runs(TermId term) const {
  const FlatTermMeta* meta = term_meta(term);
  return meta == nullptr ? TermRuns{} : runs(*meta);
}

}  // namespace ibseg
