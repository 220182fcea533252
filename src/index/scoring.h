#ifndef IBSEG_INDEX_SCORING_H_
#define IBSEG_INDEX_SCORING_H_

#include <cstdint>
#include <vector>

#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "text/term_vector.h"

namespace ibseg {

/// A retrieval hit: a unit of an InvertedIndex and its relatedness score.
struct ScoredUnit {
  uint32_t unit = 0;
  double score = 0.0;
};

/// The probabilistic inverse document frequency of Eq. 9, adjusted for a
/// collection of `collection_size` units of which `df` contain the term:
///   log(|I| - |I^t|) / |I^t|   (as printed in the paper)
/// with 0.5 smoothing on both occurrences of |I^t| and a floor at 0 so that
/// a term contained in (almost) every unit contributes nothing rather than
/// a NaN or a negative score. See DESIGN.md "Known formula notes".
double probabilistic_idf(size_t collection_size, size_t df);

/// Selectable text-comparison function. The paper builds its own Eq. 7-9
/// variant but explicitly allows "one of the many TF/IDF or BM25 variants
/// or language-model based methods" as the segment comparator (Sec. 1/7);
/// all three families are provided.
enum class ScoringFunction {
  kPaperTfIdf,  ///< Eq. 8 weights x Eq. 9 probabilistic IDF (default)
  kBm25,        ///< Okapi BM25 (Robertson et al.)
  kQueryLikelihood,  ///< Jelinek-Mercer smoothed query-likelihood LM
};

/// Parameters of the selectable scoring functions; each function reads
/// only its own knobs.
struct ScoringOptions {
  ScoringFunction function = ScoringFunction::kPaperTfIdf;
  double bm25_k1 = 1.2;   ///< BM25 term-frequency saturation
  double bm25_b = 0.75;   ///< BM25 length-normalization slope
  /// Jelinek-Mercer interpolation weight of the collection model.
  double lm_lambda = 0.7;
};

/// Scores every unit of `index` against the query bag `query`.
/// Default (kPaperTfIdf): the paper's Eq. 9,
///   scr(q, u) = sum_t f_q(t) * w(t, u) * pidf(t)
/// with w the Eq. 7/8 weight stored in the index. kBm25 and
/// kQueryLikelihood evaluate the corresponding classic functions (the LM
/// uses the rank-equivalent sparse form
///   sum_t f_q(t) * log(1 + ((1-l)*tf/len) / (l*ctf/C))
/// so non-matching units keep score 0). Returns the units with positive
/// score, unordered. Term-at-a-time evaluation over the postings lists.
///
/// `global` switches every collection-dependent input — |I|, |I^t|, the NU
/// pivot average, the norm floor, the BM25 length pivot, the LM collection
/// model — from the index's own statistics to the supplied cross-shard
/// aggregate, and re-derives unit norms on the fly from the index's
/// per-unit lexical stats via pre_floor_unit_norm. A document-partitioned
/// shard scored this way produces, for each of its units, exactly the
/// bits a single unpartitioned index holding the full collection would
/// produce (same per-term accumulation order, same arithmetic, same skip
/// rules). nullptr (the default) keeps the classic local-statistics path.
std::vector<ScoredUnit> score_units(const InvertedIndex& index,
                                    const TermVector& query,
                                    const ScoringOptions& options = {},
                                    const ClusterCollectionStats* global =
                                        nullptr);

/// Sorts hits by descending score (ties by ascending unit id for
/// determinism) and truncates to `n`.
void keep_top_n(std::vector<ScoredUnit>& hits, size_t n);

/// Work counter of one scoring call, filled by both scoring paths. The
/// serving layer folds it into QueryWorkCounters::units_scored.
struct ScoreStats {
  /// Units whose accumulated score is nonzero (in practice: units matching
  /// at least one admitted query term), counted before exclusion and
  /// selection.
  uint64_t units_scored = 0;
};

/// Exhaustive map-based scoring with a work counter (see score_units for
/// semantics) — the reference the dense kernel is checked against.
std::vector<ScoredUnit> score_units_counted(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    ScoreStats* stats);

/// The per-intention score → exclude → threshold → select step of
/// IntentionMatcher::match_cluster_terms, as one dense term-at-a-time
/// kernel over `index`'s sealed flat postings. Per call it fills a
/// thread-local per-unit array with each unit's scoring operand (the
/// Eq. 7/8 norm, BM25's length factor or the LM's clamped length), walks
/// every admitted query term's postings in TermId order adding each
/// contribution into a thread-local accumulator indexed by unit, then
/// selects in one pass over the accumulator:
///
///  * score_threshold <= 0 (top-n mode): the top `top_n` units with
///    positive score under (score desc, unit_doc[unit] asc) — the
///    tie-order contract — among units whose doc != exclude_doc.
///  * score_threshold > 0 (threshold mode): EVERY such unit with
///    score >= score_threshold (top_n is ignored, matching the matcher's
///    keep-all threshold semantics).
///
/// Results are sorted by (score desc, doc asc) and are bit-identical —
/// scores included — to score_units_counted followed by the matcher's
/// exclude/threshold/top-n selection: each unit's score is the same
/// sequence of the same double operations (same contribution function,
/// same TermId-ascending accumulation order, starting from 0.0), and the
/// selection keeps the same set under a total order. `global` selects the
/// sharded (cross-shard statistics) arithmetic exactly as in score_units.
/// tests/differential_test.cc sweeps this equivalence. The work arrays
/// are per thread, so concurrent calls (scatter legs) share nothing. (The
/// name predates the kernel: nothing is pruned.)
std::vector<ScoredUnit> score_units_maxscore(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, ScoreStats* stats = nullptr);

/// Size of small_tf_log_table(): it covers integral tf in [1, 256).
inline constexpr uint32_t kSmallTfLogs = 256;

/// log(tf) for every integral tf in [1, kSmallTfLogs), indexed by tf
/// (entry 0 is unused). The paper weight reads it instead of calling
/// std::log for such tf (tf = 1 is most postings). The entries are filled
/// once, at run time, by std::log itself, never by compile-time constant
/// folding (whose rounding need not match libm's), so a lookup returns
/// exactly the double the call would.
const double* small_tf_log_table();

}  // namespace ibseg

#endif  // IBSEG_INDEX_SCORING_H_
