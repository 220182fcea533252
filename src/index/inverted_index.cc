#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/trace.h"

namespace ibseg {

uint32_t InvertedIndex::add_unit(const TermVector& terms) {
  finalized_ = false;  // norms must be recomputed
  uint32_t unit = static_cast<uint32_t>(stats_.size());
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    postings_[term].push_back(Posting{unit, tf});
    collection_tf_[term] += tf;
    collection_length_ += tf;
  }
  stats_.push_back(compute_unit_lex_stats(terms));
  unit_norms_.push_back(1.0);  // placeholder until finalize()
  return unit;
}

void InvertedIndex::finalize() {
  if (finalized_) return;
  // Timed only when norms are actually recomputed; the idempotent
  // early-return above would otherwise flood the stage histogram with
  // no-op samples.
  obs::TraceScope term_weight(obs::Stage::kTermWeight);
  double total_unique = 0.0;
  for (const UnitLexStats& s : stats_) total_unique += s.unique_terms;
  avg_unique_terms_ =
      stats_.empty() ? 0.0 : total_unique / static_cast<double>(stats_.size());
  double length_sum = 0.0;
  for (const UnitLexStats& s : stats_) length_sum += s.length;
  avg_length_ =
      stats_.empty() ? 0.0 : length_sum / static_cast<double>(stats_.size());
  double norm_sum = 0.0;
  for (size_t u = 0; u < stats_.size(); ++u) {
    unit_norms_[u] = pre_floor_unit_norm(stats_[u].log_tf_sum,
                                         stats_[u].unique_terms,
                                         avg_unique_terms_);
    norm_sum += unit_norms_[u];
  }
  if (!unit_norms_.empty() && min_norm_fraction > 0.0) {
    double floor =
        min_norm_fraction * norm_sum / static_cast<double>(unit_norms_.size());
    for (double& n : unit_norms_) n = std::max(n, floor);
  }
  // Seal the contiguous serving form the query path reads.
  std::vector<std::pair<TermId, const std::vector<Posting>*>> term_postings;
  term_postings.reserve(postings_.size());
  for (const auto& [term, plist] : postings_) {
    term_postings.emplace_back(term, &plist);
  }
  std::sort(term_postings.begin(), term_postings.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  flat_ = FlatPostings::seal(term_postings);
  cache_operands(nullptr);
  finalized_ = true;
}

std::shared_ptr<const UnitOperands> InvertedIndex::cached_operands(
    const UnitOperands::Key& key) const {
  std::lock_guard<std::mutex> lock(operands_.mu);
  if (operands_.entry == nullptr || operands_.entry->key != key) {
    return nullptr;
  }
  return operands_.entry;
}

void InvertedIndex::cache_operands(
    std::shared_ptr<const UnitOperands> operands) const {
  // Declared before the lock, so a replaced entry that was the last
  // reference is freed after the lock is released.
  std::shared_ptr<const UnitOperands> old;
  std::lock_guard<std::mutex> lock(operands_.mu);
  old = std::move(operands_.entry);
  operands_.entry = std::move(operands);
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  assert(finalized_);
  static const std::vector<Posting>* kEmpty = new std::vector<Posting>();
  auto it = postings_.find(term);
  return it == postings_.end() ? *kEmpty : it->second;
}

size_t InvertedIndex::df(TermId term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? 0 : it->second.size();
}

double InvertedIndex::collection_tf(TermId term) const {
  auto it = collection_tf_.find(term);
  return it == collection_tf_.end() ? 0.0 : it->second;
}

double InvertedIndex::weight(TermId term, uint32_t unit) const {
  assert(finalized_);
  for (const Posting& p : postings(term)) {
    if (p.unit == unit) return (std::log(p.tf) + 1.0) / unit_norms_[unit];
  }
  return 0.0;
}

}  // namespace ibseg
