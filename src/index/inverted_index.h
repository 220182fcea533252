#ifndef IBSEG_INDEX_INVERTED_INDEX_H_
#define IBSEG_INDEX_INVERTED_INDEX_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
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
/// Holds what scoring reads per unit: the sealed postings runs (flat()),
/// each unit's UnitLexStats — the inputs of its Eq. 7/8 norm and its BM25
/// / LM length — and a cache of the scoring kernel's per-unit operands.
/// The collection statistics the scorers weigh them with (|I|, |I^t|, the
/// NU average, the norm floor, ...) live on a statistics board
/// (ClusterCollectionStats), never here.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Adds a unit. Unit ids are assigned densely in insertion order and
  /// returned. Call finalize() before querying; adding after finalize() is
  /// allowed (online ingestion) but requires re-finalizing.
  uint32_t add_unit(const TermVector& terms);

  /// Seals the postings of the units added since the last seal into the
  /// flat serving form (FlatPostings::seal) and empties the operand cache.
  /// Idempotent until the next add_unit.
  void finalize();

  /// The sealed serving form of the postings (flat_postings.h). add_unit()
  /// un-finalizes the index and querying re-requires finalize(), so it can
  /// never lag the units. Requires finalize().
  const FlatPostings& flat() const {
    assert(finalized_);
    return flat_;
  }

  /// \brief Number of units added so far.
  size_t num_units() const { return stats_.size(); }

  /// The lexical statistics of `unit` (compute_unit_lex_stats of the bag
  /// it was added with): its Eq. 7/8 norm is
  /// ClusterCollectionStats::unit_norm of them, and `length` is the |d| of
  /// BM25 and language-model scoring.
  const UnitLexStats& unit_stats(uint32_t unit) const { return stats_[unit]; }

  /// The scoring kernel's operands cached under `key`; nullptr when the
  /// cache holds none or another key's. finalize() empties the cache, so a
  /// hit always describes the current units. Thread-safe.
  std::shared_ptr<const UnitOperands> cached_operands(
      const UnitOperands::Key& key) const;

  /// Replaces the cached operands (one entry per index). Thread-safe:
  /// concurrent scoring calls may fill it at once; each keeps the entry
  /// it computed for the length of its call.
  void cache_operands(std::shared_ptr<const UnitOperands> operands) const;

 private:
  /// Postings of the units added since the last seal, in insertion order;
  /// finalize() sorts them by term and folds them into flat_.
  std::vector<TermPosting> added_;
  FlatPostings flat_;
  std::vector<UnitLexStats> stats_;
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
