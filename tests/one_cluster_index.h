#ifndef IBSEG_TESTS_ONE_CLUSTER_INDEX_H_
#define IBSEG_TESTS_ONE_CLUSTER_INDEX_H_

// An InvertedIndex read the way a standalone matcher reads one of its
// cluster indices: through a one-cluster statistics board that holds
// exactly the index's units, in insertion order.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "index/collection_stats.h"
#include "index/flat_postings.h"
#include "index/intention_matcher.h"
#include "index/inverted_index.h"
#include "index/scoring.h"
#include "text/term_vector.h"

namespace ibseg {

struct OneClusterIndex {
  explicit OneClusterIndex(
      double min_norm_fraction = MatcherOptions().min_norm_fraction)
      : board(std::make_unique<GlobalIndexStats>(1, min_norm_fraction)) {}

  uint32_t add_unit(const TermVector& terms) {
    board->append(0, terms, /*refresh_now=*/false);
    return index.add_unit(terms);
  }

  /// Seals the index and takes the board's snapshot.
  void finalize() {
    board->refresh(0);
    stats = board->cluster(0);
    index.finalize();
  }

  const ClusterCollectionStats& collection() const { return *stats; }
  size_t num_units() const { return index.num_units(); }
  size_t df(TermId term) const { return stats->df_of(term); }
  double unit_norm(uint32_t unit) const {
    return stats->unit_norm(index.unit_stats(unit));
  }

  /// `term`'s sealed runs merged back by unit (tf = 1 postings as 1.0).
  std::vector<Posting> postings(TermId term) const {
    const TermRuns runs = index.flat().runs(term);
    std::vector<Posting> out;
    size_t i = 0;
    size_t j = 0;
    while (i < runs.ones.size() || j < runs.tfs.size()) {
      if (j == runs.tfs.size() ||
          (i < runs.ones.size() && runs.ones[i] < runs.tfs[j].unit)) {
        out.push_back(Posting{runs.ones[i++], 1.0});
      } else {
        out.push_back(runs.tfs[j++]);
      }
    }
    return out;
  }

  /// Eq. 7/8 weight of `term` in `unit`: (log tf + 1) / unit_norm(unit);
  /// 0 when the unit lacks the term.
  double weight(TermId term, uint32_t unit) const {
    for (const Posting& p : postings(term)) {
      if (p.unit == unit) return (std::log(p.tf) + 1.0) / unit_norm(unit);
    }
    return 0.0;
  }

  std::vector<ScoredUnit> score(const TermVector& query,
                                const ScoringOptions& options = {}) const {
    return score_units(index, query, options, *stats);
  }

  InvertedIndex index;
  std::unique_ptr<GlobalIndexStats> board;
  std::shared_ptr<const ClusterCollectionStats> stats;
};

}  // namespace ibseg

#endif  // IBSEG_TESTS_ONE_CLUSTER_INDEX_H_
