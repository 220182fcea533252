#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"

namespace ibseg {

uint32_t InvertedIndex::add_unit(const TermVector& terms) {
  finalized_ = false;  // the unit's postings are not sealed yet
  uint32_t unit = static_cast<uint32_t>(stats_.size());
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    added_.push_back(TermPosting{term, unit, tf});
  }
  stats_.push_back(compute_unit_lex_stats(terms));
  return unit;
}

void InvertedIndex::finalize() {
  if (finalized_) return;
  // Timed only when something is sealed; the idempotent early-return
  // above would otherwise flood the stage histogram with no-op samples.
  obs::TraceScope seal(obs::Stage::kTermWeight);
  // (term, unit) pairs are unique, and units ascend within each term.
  std::sort(added_.begin(), added_.end(),
            [](const TermPosting& a, const TermPosting& b) {
              return a.term != b.term ? a.term < b.term : a.unit < b.unit;
            });
  flat_ = FlatPostings::seal(flat_, added_);
  std::vector<TermPosting>().swap(added_);
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

}  // namespace ibseg
