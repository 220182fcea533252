#ifndef IBSEG_INDEX_COLLECTION_STATS_H_
#define IBSEG_INDEX_COLLECTION_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace ibseg {

/// BM25-style pivot slope b of the Eq. 7/8 unique-term normalization NU.
inline constexpr double kNormPivotSlope = 0.75;

/// Per-unit lexical statistics of Eqs. 7/8 — everything about one unit the
/// term-weight denominator needs. Computed once at add time; the values are
/// a pure function of the unit's term bag, so the statistics board and the
/// InvertedIndex holding the unit derive bit-identical numbers from the
/// same TermVector (both call compute_unit_lex_stats).
struct UnitLexStats {
  double log_tf_sum = 0.0;  ///< sum of (log tf + 1) over the unit's terms
  double length = 0.0;      ///< sum of tf (the |d| of BM25 / LM scoring)
  size_t unique_terms = 0;  ///< number of distinct terms with tf > 0
};

/// Folds a term bag into UnitLexStats, iterating entries in TermId order
/// (TermVector is id-ordered) and skipping non-positive weights — the same
/// skip rule InvertedIndex::add_unit applies to postings.
UnitLexStats compute_unit_lex_stats(const TermVector& terms);

/// The Eq. 7/8 denominator of one unit, *before* the collection-average
/// floor: (sum of log tf + 1) * NU, where NU pivots the unit's unique-term
/// count against the collection average; degenerate denominators fall back
/// to 1. GlobalIndexStats::refresh sums it into the floor, and
/// ClusterCollectionStats::unit_norm floors it, so a unit's norm is the
/// same double on both sides.
inline double pre_floor_unit_norm(double log_tf_sum, size_t unique_terms,
                                  double avg_unique_terms) {
  double nu = 1.0;
  if (avg_unique_terms > 0.0) {
    nu = (1.0 - kNormPivotSlope) +
         kNormPivotSlope * static_cast<double>(unique_terms) /
             avg_unique_terms;
  }
  double denom = log_tf_sum * nu;
  return denom > 0.0 ? denom : 1.0;
}

/// Immutable snapshot of one intention cluster's collection-dependent
/// scoring statistics — the only place they are kept. Every scorer
/// (scoring.h) reads |I|, |I^t|, the NU pivot average, the norm floor, the
/// BM25 length pivot and the LM collection model from here, and each
/// unit's own UnitLexStats from the index that holds it. A standalone
/// matcher's board holds exactly its own units; a sharded deployment's
/// board aggregates EVERY shard, so a shard scoring only its own
/// documents' postings reproduces — bit for bit — the scores a single
/// unpartitioned index would produce. See docs/ARCHITECTURE.md §6.
struct ClusterCollectionStats {
  size_t num_units = 0;          ///< |I|: the cluster's units (all shards)
  double avg_unique_terms = 0.0; ///< NU pivot average
  double norm_floor = 0.0;       ///< Eq. 7/8 norm floor; 0 = no floor
  double avg_unit_length = 0.0;  ///< BM25 length pivot
  double collection_length = 0.0;  ///< LM collection mass
  /// |I^t| per term (document frequency).
  std::unordered_map<TermId, size_t> df;
  /// Collection term frequency per term (LM collection model numerator).
  std::unordered_map<TermId, double> collection_tf;

  size_t df_of(TermId term) const {
    auto it = df.find(term);
    return it == df.end() ? 0 : it->second;
  }
  /// Collection frequency of `term`: its total tf over the cluster.
  double cf_of(TermId term) const {
    auto it = collection_tf.find(term);
    return it == collection_tf.end() ? 0.0 : it->second;
  }

  /// The Eq. 7/8 denominator of a unit of this cluster:
  ///   sum_{t' in unit} (log tf(t') + 1) * NU(unit)
  /// where NU(unit) = (1 - b) + b * unique(unit) / avg_unique and b = 0.75
  /// (the BM25-style pivot; penalizes units with more unique terms than the
  /// collection average, as the paper describes), raised to the norm
  /// floor.
  double unit_norm(const UnitLexStats& unit) const {
    double norm = pre_floor_unit_norm(unit.log_tf_sum, unit.unique_terms,
                                      avg_unique_terms);
    return norm_floor > 0.0 ? std::max(norm, norm_floor) : norm;
  }
};

/// The statistics board: one ClusterCollectionStats per intention cluster,
/// accumulated over every unit the board is fed, in the order it is fed
/// them. IntentionMatcher::build seeds a standalone matcher's board in the
/// order it indexes its units (cluster-major, member order); a sharded
/// deployment seeds one board in that same order over the whole corpus,
/// and every shard appends its publications to it in global publication
/// order.
///
///  * append() folds a unit's term bag into its cluster (TermId order, the
///    tf <= 0 skip of compute_unit_lex_stats);
///  * refresh() derives the snapshot — averages from exact integer-valued
///    sums, then the norm floor from a *serial* sweep over every unit's
///    pre-floor norm in board order. The floor is the one order-sensitive
///    float sum in the whole scoring stack, which is why the board keeps
///    the per-unit stats vector and why sharded publication is serialized
///    (ShardedServing's publish mutex): the board's unit order must equal
///    the order a single unsharded matcher would have indexed them in.
///
/// Readers never block writers: cluster() hands out a shared_ptr to an
/// immutable snapshot (copy-on-write — refresh() builds a new snapshot and
/// swaps the pointer under the board mutex). A query grabs the snapshots it
/// needs once up front and scores against them without further
/// synchronization.
class GlobalIndexStats {
 public:
  /// An empty board of `num_clusters` clusters whose norm floor is
  /// `min_norm_fraction` of the collection-average norm (see
  /// MatcherOptions::min_norm_fraction; 0 = no floor).
  GlobalIndexStats(int num_clusters, double min_norm_fraction);

  GlobalIndexStats(const GlobalIndexStats&) = delete;
  GlobalIndexStats& operator=(const GlobalIndexStats&) = delete;

  /// Appends one unit's term bag to `cluster`. With `refresh_now` (the
  /// online-ingest path) the cluster's derived stats and published snapshot
  /// are rebuilt immediately; bulk seeding passes false and calls refresh()
  /// once per cluster afterwards.
  void append(int cluster, const TermVector& terms, bool refresh_now = true);

  /// Recomputes `cluster`'s derived statistics and publishes a fresh
  /// immutable snapshot.
  void refresh(int cluster);

  /// The current immutable snapshot of `cluster`'s statistics. Never null
  /// for a valid cluster id. Thread-safe against concurrent append/refresh.
  std::shared_ptr<const ClusterCollectionStats> cluster(int c) const;

  int num_clusters() const { return static_cast<int>(accums_.size()); }

  /// Total units appended across all clusters (diagnostics).
  size_t total_units() const;

 private:
  struct ClusterAccum {
    /// Per-unit stats in global publication order — the inputs of the
    /// serial norm-floor sweep.
    std::vector<UnitLexStats> units;
    std::unordered_map<TermId, size_t> df;
    std::unordered_map<TermId, double> collection_tf;
    double collection_length = 0.0;
  };

  mutable std::mutex mu_;
  std::vector<ClusterAccum> accums_;
  std::vector<std::shared_ptr<const ClusterCollectionStats>> views_;
  double min_norm_fraction_ = 1.0;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_COLLECTION_STATS_H_
