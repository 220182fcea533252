#include "index/flat_postings.h"

#include <algorithm>
#include <cassert>

namespace ibseg {

FlatPostings FlatPostings::seal(const FlatPostings& sealed,
                                std::span<const TermPosting> added) {
  // Size every array exactly first: one pass over `added`, walking the
  // sealed terms alongside to count the terms it introduces.
  size_t num_terms = sealed.meta_.size();
  size_t ones_total = sealed.ones_.size();
  size_t tfs_total = sealed.tfs_.size();
  size_t m = 0;
  for (size_t j = 0; j < added.size(); ++j) {
    if (added[j].tf == 1.0) {
      ++ones_total;
    } else {
      ++tfs_total;
    }
    if (j > 0 && added[j - 1].term == added[j].term) continue;
    while (m < sealed.meta_.size() && sealed.meta_[m].first < added[j].term) {
      ++m;
    }
    if (m == sealed.meta_.size() || sealed.meta_[m].first != added[j].term) {
      ++num_terms;
    }
  }
  FlatPostings flat;
  flat.meta_.reserve(num_terms);
  flat.ones_.reserve(ones_total);
  flat.tfs_.reserve(tfs_total);

  // Merge by term: a term's sealed runs, then its added postings.
  m = 0;
  size_t j = 0;
  while (m < sealed.meta_.size() || j < added.size()) {
    const bool sealed_first =
        j == added.size() ||
        (m < sealed.meta_.size() && sealed.meta_[m].first < added[j].term);
    const TermId term = sealed_first ? sealed.meta_[m].first : added[j].term;
    FlatTermMeta meta;
    meta.ones_offset = static_cast<uint32_t>(flat.ones_.size());
    meta.tfs_offset = static_cast<uint32_t>(flat.tfs_.size());
    if (m < sealed.meta_.size() && sealed.meta_[m].first == term) {
      const TermRuns runs = sealed.runs(sealed.meta_[m].second);
      flat.ones_.insert(flat.ones_.end(), runs.ones.begin(), runs.ones.end());
      flat.tfs_.insert(flat.tfs_.end(), runs.tfs.begin(), runs.tfs.end());
      ++m;
    }
    for (; j < added.size() && added[j].term == term; ++j) {
      assert(j == 0 || added[j - 1].term != term ||
             added[j - 1].unit < added[j].unit);
      if (added[j].tf == 1.0) {
        flat.ones_.push_back(added[j].unit);
      } else {
        flat.tfs_.push_back(Posting{added[j].unit, added[j].tf});
      }
    }
    meta.ones = static_cast<uint32_t>(flat.ones_.size()) - meta.ones_offset;
    meta.df = meta.ones +
              (static_cast<uint32_t>(flat.tfs_.size()) - meta.tfs_offset);
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
