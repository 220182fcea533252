#ifndef IBSEG_INDEX_INVERTED_INDEX_H_
#define IBSEG_INDEX_INVERTED_INDEX_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "index/collection_stats.h"
#include "index/flat_postings.h"
#include "text/term_vector.h"
#include "text/vocabulary.h"

namespace ibseg {

/// Per-unit operands of the dense scoring kernel (scoring.h) under one
/// scorer and one set of collection statistics, filled by the kernel and
/// cached on the index they were computed from.
struct UnitOperands {
  /// The scorer and the bit patterns of every collection input its
  /// operands read. Over one finalized index, equal keys mean equal
  /// operands.
  using Key = std::array<uint64_t, 4>;
  Key key{};
  std::vector<double> in;   ///< each unit's operand of contribution()
  std::vector<double> one;  ///< each unit's tf = 1 form of it
};

/// Full-text inverted index over "units". The intention matcher builds one
/// per intention cluster (|C| indices, Sec. 7 "Indexing"); the FullText
/// baseline builds a single one over whole posts.
///
/// Also maintains the per-unit statistics needed by the MySQL-5.5-style
/// weighting of Eqs. 7/8: the sum of (log tf + 1) over the unit's terms and
/// the pivoted unique-term-count normalization NU.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds a unit. Unit ids are assigned densely in insertion order and
  /// returned. Call finalize() before querying; adding after finalize() is
  /// allowed (online ingestion) but requires re-finalizing.
  uint32_t add_unit(const TermVector& terms);

  /// Computes the collection-dependent normalizations. Idempotent until
  /// the next add_unit.
  void finalize();

  /// Postings for `term` (empty when absent). Requires finalize(). This is
  /// the node-heavy *build* form; the query path reads the sealed flat()
  /// serving form instead (the same values, split into contiguous runs).
  const std::vector<Posting>& postings(TermId term) const;

  /// The sealed serving form of the postings (flat_postings.h): rebuilt
  /// by every finalize(), so it can never lag the build form —
  /// add_unit() un-finalizes the index and querying re-requires finalize().
  /// Requires finalize().
  const FlatPostings& flat() const {
    assert(finalized_);
    return flat_;
  }

  /// Number of units containing `term` (document frequency).
  size_t df(TermId term) const;

  /// \brief Number of units added so far.
  size_t num_units() const { return unit_norms_.size(); }

  /// Average number of unique terms per unit (the pivot of NU, Eq. 7/8).
  double avg_unique_terms() const { return avg_unique_terms_; }

  /// Eq. 7/8 denominator for `unit`:
  ///   sum_{t' in unit} (log tf(t') + 1) * NU(unit)
  /// where NU(unit) = (1 - b) + b * unique(unit) / avg_unique and b = 0.75
  /// (the BM25-style pivot; penalizes units with more unique terms than the
  /// collection average, as the paper describes).
  double unit_norm(uint32_t unit) const { return unit_norms_[unit]; }

  /// Eq. 7/8 numerator-complete weight of `term` in `unit`:
  ///   (log tf + 1) / unit_norm(unit); 0 when the term is absent.
  double weight(TermId term, uint32_t unit) const;

  /// Total term-occurrence mass of `unit` (sum of tf) — the |d| of BM25
  /// and language-model scoring.
  double unit_length(uint32_t unit) const { return stats_[unit].length; }

  /// Average unit length across the collection. Requires finalize().
  double avg_unit_length() const { return avg_length_; }

  /// Collection frequency of `term` (total tf across units).
  double collection_tf(TermId term) const;

  /// Total term-occurrence mass of the collection.
  double collection_length() const { return collection_length_; }

  /// Per-unit sum of (log tf + 1) — the Eq. 7/8 numerator of the unit's
  /// norm. Exposed (with unit_unique_terms) so a document-partitioned
  /// shard's units can be re-normalized on the fly against *global*
  /// collection statistics (see ClusterCollectionStats): the norm is a pure
  /// function of these two locals plus the collection's NU average + floor.
  double unit_log_tf_sum(uint32_t unit) const {
    return stats_[unit].log_tf_sum;
  }

  /// Number of distinct terms in `unit` (the NU pivot input).
  size_t unit_unique_terms(uint32_t unit) const {
    return stats_[unit].unique_terms;
  }

  /// The scoring kernel's operands cached under `key`; nullptr when the
  /// cache holds none or another key's. finalize() empties the cache, so a
  /// hit always describes the current units. Thread-safe.
  std::shared_ptr<const UnitOperands> cached_operands(
      const UnitOperands::Key& key) const;

  /// Replaces the cached operands (one entry per index). Thread-safe:
  /// concurrent scoring calls may fill it at once; each keeps the entry
  /// it computed for the length of its call.
  void cache_operands(std::shared_ptr<const UnitOperands> operands) const;

  /// Pivot slope b of NU (alias of the shared kNormPivotSlope).
  static constexpr double kPivotSlope = kNormPivotSlope;

  /// Floor applied to unit norms, as a fraction of the collection-average
  /// norm. Eq. 7/8 divide by a per-unit sum that gets tiny for very short
  /// units, which would let a one-term overlap with a three-term segment
  /// outscore multi-term matches against substantial segments; the floor
  /// keeps short-unit weights bounded. Set before finalize().
  double min_norm_fraction = 1.0;

 private:
  std::unordered_map<TermId, std::vector<Posting>> postings_;
  FlatPostings flat_;
  std::unordered_map<TermId, double> collection_tf_;
  std::vector<UnitLexStats> stats_;
  std::vector<double> unit_norms_;
  double avg_unique_terms_ = 0.0;
  double avg_length_ = 0.0;
  double collection_length_ = 0.0;
  bool finalized_ = false;

  /// One cached UnitOperands entry. A copied index starts with an empty
  /// cache (the mutex is not copyable, and the entry is cheap to rebuild).
  struct OperandCache {
    OperandCache() = default;
    OperandCache(const OperandCache&) {}
    OperandCache& operator=(const OperandCache&) {
      std::lock_guard<std::mutex> lock(mu);
      entry.reset();
      return *this;
    }
    std::mutex mu;
    std::shared_ptr<const UnitOperands> entry;
  };
  mutable OperandCache operands_;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_INVERTED_INDEX_H_
