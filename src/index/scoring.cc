#include "index/scoring.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace ibseg {

double probabilistic_idf(size_t collection_size, size_t df) {
  if (df == 0 || collection_size == 0) return 0.0;
  double n = static_cast<double>(collection_size);
  double d = static_cast<double>(df);
  double value = std::log((n - d + 0.5)) / (d + 0.5);
  return value > 0.0 ? value : 0.0;
}

namespace {

// --- Scoring functions ------------------------------------------------
//
// One struct per ScoringFunction, reading the collection statistics from
// the ClusterCollectionStats it holds; each provides
//   setup(term, f_q, &t)  -> false to skip the term entirely
//   operand_key()         -> the scorer and the bits of every collection
//                            input unit_input() reads (the UnitOperands
//                            cache key)
//   unit_input(unit)      -> the unit's operand: the part of the
//                            per-posting expression that depends on the
//                            unit alone
//   tf_part(tf, in)       -> the part that depends on the posting (tf and
//                            the unit's operand) alone
//   combine(t, part)      -> the contribution of a posting to its unit's
//                            score
// so one posting contributes combine(t, tf_part(tf, unit_input(unit))),
// spelled with EXACTLY the expressions (associativity included) the
// scoring function defines. A tf = 1 posting's tf_part(1.0, in) is a
// function of its unit alone; the kernel computes it once per unit (the
// tf = 1 form) by this same call. The map-based reference and the dense
// kernel both compose these same functions, which is what makes "kernel
// == reference, bit for bit" a structural property.

// log(tf) of the Eq. 8 weight: integral tf below kSmallTfLogs reads the
// run-time-filled table, everything else calls std::log — the same double
// either way (Differential.SmallTfLogTableEqualsRuntimeLog checks every
// table entry).
inline double log_tf(const double* table, double tf) {
  if (tf >= 1.0 && tf < static_cast<double>(kSmallTfLogs)) {
    const auto i = static_cast<uint32_t>(tf);
    if (static_cast<double>(i) == tf) return table[i];
  }
  return std::log(tf);
}

inline uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

struct PaperScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats& collection;
  const double* logs = small_tf_log_table();
  struct Term {
    double f_q = 0.0;
    double pidf = 0.0;
  };
  bool setup(TermId term, double f_q, Term* t) const {
    double pidf = probabilistic_idf(collection.num_units,
                                    collection.df_of(term));
    if (pidf <= 0.0) return false;
    t->f_q = f_q;
    t->pidf = pidf;
    return true;
  }
  /// A norm reads the snapshot's NU average and floor.
  UnitOperands::Key operand_key() const {
    return {0, bits(collection.avg_unique_terms),
            bits(collection.norm_floor), 0};
  }
  /// The unit's Eq. 7/8 norm.
  double unit_input(uint32_t unit) const {
    return collection.unit_norm(index.unit_stats(unit));
  }
  /// The Eq. 8 weight w.
  double tf_part(double tf, double norm) const {
    return (log_tf(logs, tf) + 1.0) / norm;
  }
  double combine(const Term& t, double w) const { return t.f_q * w * t.pidf; }
};

struct Bm25Scorer {
  const InvertedIndex& index;
  const ClusterCollectionStats& collection;
  double k1 = 1.2;
  double b = 0.75;
  double n = 0.0;
  double avg_len = 1e-9;
  struct Term {
    double fi = 0.0;  ///< f_q * idf (hoisting is associativity-preserving)
  };
  bool setup(TermId term, double f_q, Term* t) const {
    double df = static_cast<double>(collection.df_of(term));
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    t->fi = f_q * idf;
    return true;
  }
  UnitOperands::Key operand_key() const {
    return {1, bits(k1), bits(b), bits(avg_len)};
  }
  /// K of the unit: the right operand of the tf-component denominator's
  /// `tf + K`, evaluated exactly as that subexpression would be.
  double unit_input(uint32_t unit) const {
    double len = index.unit_stats(unit).length;
    return k1 * (1.0 - b + b * len / avg_len);
  }
  /// The tf component.
  double tf_part(double tf, double k) const {
    return (tf * (k1 + 1.0)) / (tf + k);
  }
  double combine(const Term& t, double tf_component) const {
    return t.fi * tf_component;
  }
};

struct LmScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats& collection;
  double lambda = 0.7;
  double collection_len = 1e-9;
  struct Term {
    double f_q = 0.0;
    double p_collection = 0.0;
  };
  bool setup(TermId term, double f_q, Term* t) const {
    double p_collection = collection.cf_of(term) / collection_len;
    if (p_collection <= 0.0) return false;
    t->f_q = f_q;
    t->p_collection = p_collection;
    return true;
  }
  /// The clamped length reads no collection statistics.
  UnitOperands::Key operand_key() const { return {2, 0, 0, 0}; }
  double unit_input(uint32_t unit) const {
    return std::max(index.unit_stats(unit).length, 1e-9);
  }
  /// The unit model's p(t | u).
  double tf_part(double tf, double len) const { return tf / len; }
  double combine(const Term& t, double p_unit) const {
    return t.f_q * std::log(1.0 + ((1.0 - lambda) * p_unit) /
                                      (lambda * t.p_collection));
  }
};

template <class Scorer>
Scorer make_scorer(const InvertedIndex& index, const ScoringOptions& options,
                   const ClusterCollectionStats& collection);

template <>
PaperScorer make_scorer<PaperScorer>(const InvertedIndex& index,
                                     const ScoringOptions& options,
                                     const ClusterCollectionStats& collection) {
  (void)options;
  return PaperScorer{index, collection};
}

template <>
Bm25Scorer make_scorer<Bm25Scorer>(const InvertedIndex& index,
                                   const ScoringOptions& options,
                                   const ClusterCollectionStats& collection) {
  Bm25Scorer s{index, collection};
  s.k1 = options.bm25_k1;
  s.b = options.bm25_b;
  s.n = static_cast<double>(collection.num_units);
  s.avg_len = std::max(collection.avg_unit_length, 1e-9);
  return s;
}

template <>
LmScorer make_scorer<LmScorer>(const InvertedIndex& index,
                               const ScoringOptions& options,
                               const ClusterCollectionStats& collection) {
  LmScorer s{index, collection};
  s.lambda = std::clamp(options.lm_lambda, 1e-6, 1.0 - 1e-6);
  s.collection_len = std::max(collection.collection_length, 1e-9);
  return s;
}

// --- Map-based reference ----------------------------------------------
//
// The historic term-at-a-time algorithm: every admitted term's postings
// (both runs, a tf = 1 posting with tf 1.0) fold into a unit -> score map
// in query (TermId-ascending) order, each contribution evaluated in full.
template <class Scorer>
std::vector<ScoredUnit> score_units_reference(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats& collection,
    ScoreStats* stats) {
  Scorer scorer = make_scorer<Scorer>(index, options, collection);
  const FlatPostings& flat = index.flat();
  std::unordered_map<uint32_t, double> acc;
  auto add = [&](const typename Scorer::Term& t, uint32_t unit, double tf) {
    acc[unit] +=
        scorer.combine(t, scorer.tf_part(tf, scorer.unit_input(unit)));
  };
  for (const auto& [term, f_q] : query.entries()) {
    if (f_q <= 0.0) continue;
    const FlatTermMeta* meta = flat.term_meta(term);
    if (meta == nullptr) continue;
    typename Scorer::Term t;
    if (!scorer.setup(term, f_q, &t)) continue;
    const TermRuns runs = flat.runs(*meta);
    for (uint32_t unit : runs.ones) add(t, unit, 1.0);
    for (const Posting& p : runs.tfs) add(t, p.unit, p.tf);
  }
  std::vector<ScoredUnit> hits;
  hits.reserve(acc.size());
  for (const auto& [unit, score] : acc) {
    if (stats != nullptr && score != 0.0) ++stats->units_scored;
    if (score > 0.0) hits.push_back(ScoredUnit{unit, score});
  }
  return hits;
}

// --- Dense term-at-a-time kernel --------------------------------------

// The units' operands and tf = 1 forms under `scorer`: the index's cached
// entry when its key matches, else computed now and cached. Concurrent
// callers that miss together each compute the same values; the last one
// stored stays.
template <class Scorer>
std::shared_ptr<const UnitOperands> unit_operands(const InvertedIndex& index,
                                                  const Scorer& scorer) {
  const UnitOperands::Key key = scorer.operand_key();
  if (auto cached = index.cached_operands(key)) return cached;
  auto ops = std::make_shared<UnitOperands>();
  ops->key = key;
  const auto num_units = static_cast<uint32_t>(index.num_units());
  ops->in.resize(num_units);
  ops->one.resize(num_units);
  for (uint32_t u = 0; u < num_units; ++u) {
    ops->in[u] = scorer.unit_input(u);
    ops->one[u] = scorer.tf_part(1.0, ops->in[u]);
  }
  index.cache_operands(ops);
  return ops;
}

// The same accumulation as the reference with the map replaced by a dense
// per-unit array (units are dense ids, and a query touches most of them)
// and each unit's operand and tf = 1 form read from the per-snapshot
// cache instead of being recomputed per posting. A unit's score is
// therefore the same additions, starting from 0.0, of the same
// contribution values in the same term order (a unit has at most one
// posting per term, so reading a term's tf = 1 run before its other run
// reorders nothing within a unit). The selection pass keeps what the
// reference's filter + sort keeps: the candidate order (score desc, doc
// asc) is total because a document has at most one unit per cluster
// index.
template <class Scorer>
std::vector<ScoredUnit> dense_select(
    const InvertedIndex& index, const TermVector& query, const Scorer& scorer,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, ScoreStats* stats) {
  const bool threshold_mode = score_threshold > 0.0;
  if (!threshold_mode && top_n == 0) return {};
  // Per-thread workspace, reused across calls: once each array has
  // reached its high-water size the kernel allocates only its result.
  struct Workspace {
    std::vector<std::pair<typename Scorer::Term, const FlatTermMeta*>> terms;
    std::vector<double> acc;
  };
  static thread_local Workspace ws;
  const FlatPostings& flat = index.flat();
  auto& terms = ws.terms;
  terms.clear();
  for (const auto& [term, f_q] : query.entries()) {
    if (f_q <= 0.0) continue;
    const FlatTermMeta* meta = flat.term_meta(term);
    if (meta == nullptr) continue;
    typename Scorer::Term t;
    if (scorer.setup(term, f_q, &t)) terms.emplace_back(t, meta);
  }
  if (terms.empty()) return {};

  const auto num_units = static_cast<uint32_t>(index.num_units());
  const std::shared_ptr<const UnitOperands> ops =
      unit_operands(index, scorer);
  const double* in = ops->in.data();
  const double* one = ops->one.data();
  std::vector<double>& acc = ws.acc;
  acc.assign(num_units, 0.0);
  for (const auto& [t, meta] : terms) {
    const TermRuns runs = flat.runs(*meta);
    for (uint32_t unit : runs.ones) acc[unit] += scorer.combine(t, one[unit]);
    for (const Posting& p : runs.tfs) {
      acc[p.unit] += scorer.combine(t, scorer.tf_part(p.tf, in[p.unit]));
    }
  }

  auto better = [&unit_doc](const ScoredUnit& a, const ScoredUnit& b) {
    if (a.score != b.score) return a.score > b.score;
    return unit_doc[a.unit] < unit_doc[b.unit];
  };
  // Top-n mode keeps a heap with the worst kept unit at the front. `bar`
  // is the least score that can still be kept: the smallest positive
  // double (scores must be positive), the threshold, or — once the heap
  // is full — the heap's worst score, so most units fail one comparison.
  std::vector<ScoredUnit> out;
  double bar = threshold_mode ? score_threshold
                              : std::numeric_limits<double>::denorm_min();
  uint64_t scored = 0;
  for (uint32_t u = 0; u < num_units; ++u) {
    const double score = acc[u];
    scored += score != 0.0;
    if (!(score >= bar) || unit_doc[u] == exclude_doc) continue;
    const ScoredUnit su{u, score};
    if (threshold_mode) {
      out.push_back(su);
      continue;
    }
    if (out.size() < top_n) {
      out.push_back(su);
      std::push_heap(out.begin(), out.end(), better);
    } else if (better(su, out.front())) {
      std::pop_heap(out.begin(), out.end(), better);
      out.back() = su;
      std::push_heap(out.begin(), out.end(), better);
    } else {
      continue;
    }
    if (out.size() == top_n) bar = out.front().score;
  }
  if (stats != nullptr) stats->units_scored += scored;
  std::sort(out.begin(), out.end(), better);
  return out;
}

}  // namespace

std::vector<ScoredUnit> score_units_counted(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats& collection,
    ScoreStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return score_units_reference<Bm25Scorer>(index, query, options,
                                                collection, stats);
    case ScoringFunction::kQueryLikelihood:
      return score_units_reference<LmScorer>(index, query, options,
                                              collection, stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return score_units_reference<PaperScorer>(index, query, options,
                                             collection, stats);
}

std::vector<ScoredUnit> score_units(const InvertedIndex& index,
                                    const TermVector& query,
                                    const ScoringOptions& options,
                                    const ClusterCollectionStats& collection) {
  return score_units_counted(index, query, options, collection, nullptr);
}

std::vector<ScoredUnit> score_units_dense(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats& collection,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, ScoreStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return dense_select(index, query,
                          make_scorer<Bm25Scorer>(index, options, collection),
                          unit_doc, exclude_doc, top_n, score_threshold,
                          stats);
    case ScoringFunction::kQueryLikelihood:
      return dense_select(index, query,
                          make_scorer<LmScorer>(index, options, collection),
                          unit_doc, exclude_doc, top_n, score_threshold,
                          stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return dense_select(index, query,
                      make_scorer<PaperScorer>(index, options, collection),
                      unit_doc, exclude_doc, top_n, score_threshold, stats);
}

const double* small_tf_log_table() {
  static const std::array<double, kSmallTfLogs> table = [] {
    std::array<double, kSmallTfLogs> t{};
    for (uint32_t i = 1; i < kSmallTfLogs; ++i) {
      // A volatile operand makes this a run-time std::log call.
      volatile double tf = static_cast<double>(i);
      t[i] = std::log(tf);
    }
    return t;
  }();
  return table.data();
}

void keep_top_n(std::vector<ScoredUnit>& hits, size_t n) {
  auto cmp = [](const ScoredUnit& a, const ScoredUnit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.unit < b.unit;
  };
  if (hits.size() > n) {
    std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(n),
                      hits.end(), cmp);
    hits.resize(n);
  } else {
    std::sort(hits.begin(), hits.end(), cmp);
  }
}

}  // namespace ibseg
