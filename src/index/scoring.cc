#include "index/scoring.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
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

// Eq. 7/8 norm of `unit` under external collection statistics: the same
// pre-floor expression finalize() evaluates, with the *global* NU average
// and floor substituted. Bit-identical to the norm an unpartitioned index
// would have stored for this unit.
double global_unit_norm(const InvertedIndex& index, uint32_t unit,
                        const ClusterCollectionStats& global) {
  double norm = pre_floor_unit_norm(index.unit_log_tf_sum(unit),
                                    index.unit_unique_terms(unit),
                                    global.avg_unique_terms);
  if (global.norm_floor > 0.0) norm = std::max(norm, global.norm_floor);
  return norm;
}

// --- Scoring functions ------------------------------------------------
//
// One struct per ScoringFunction; each provides
//   setup(term, f_q, meta, &t)  -> false to skip the term entirely
//   unit_input(unit)            -> the unit's operand of contribution():
//                                  the part of the per-posting expression
//                                  that depends on the unit alone
//   contribution(t, in, tf)     -> the per-posting score contribution,
//                                  spelled with EXACTLY the expressions
//                                  (associativity included) the scoring
//                                  function defines
// Both paths below — the map-based reference and the dense kernel — call
// these same functions, which is what makes "kernel == reference, bit for
// bit" a structural property.

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

struct PaperScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  const double* logs = small_tf_log_table();
  struct Term {
    double f_q = 0.0;
    double pidf = 0.0;
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    double pidf = global == nullptr
                      ? probabilistic_idf(index.num_units(), meta.df)
                      : probabilistic_idf(global->num_units,
                                          global->df_of(term));
    if (pidf <= 0.0) return false;
    t->f_q = f_q;
    t->pidf = pidf;
    return true;
  }
  double unit_input(uint32_t unit) const {
    return global == nullptr ? index.unit_norm(unit)
                             : global_unit_norm(index, unit, *global);
  }
  double contribution(const Term& t, double norm, double tf) const {
    double w = (log_tf(logs, tf) + 1.0) / norm;
    return t.f_q * w * t.pidf;
  }
};

struct Bm25Scorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  double k1 = 1.2;
  double b = 0.75;
  double n = 0.0;
  double avg_len = 1e-9;
  struct Term {
    double fi = 0.0;  ///< f_q * idf (hoisting is associativity-preserving)
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    double df = static_cast<double>(
        global == nullptr ? meta.df : global->df_of(term));
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    t->fi = f_q * idf;
    return true;
  }
  /// K of the unit: the right operand of the tf-component denominator's
  /// `tf + K`, evaluated exactly as that subexpression would be.
  double unit_input(uint32_t unit) const {
    double len = index.unit_length(unit);
    return k1 * (1.0 - b + b * len / avg_len);
  }
  double contribution(const Term& t, double k, double tf) const {
    double tf_component = (tf * (k1 + 1.0)) / (tf + k);
    return t.fi * tf_component;
  }
};

struct LmScorer {
  const InvertedIndex& index;
  const ClusterCollectionStats* global;
  double lambda = 0.7;
  double collection_len = 1e-9;
  struct Term {
    double f_q = 0.0;
    double p_collection = 0.0;
  };
  bool setup(TermId term, double f_q, const FlatTermMeta& meta,
             Term* t) const {
    (void)meta;
    double p_collection =
        (global == nullptr ? index.collection_tf(term)
                           : global->collection_tf_of(term)) /
        collection_len;
    if (p_collection <= 0.0) return false;
    t->f_q = f_q;
    t->p_collection = p_collection;
    return true;
  }
  double unit_input(uint32_t unit) const {
    return std::max(index.unit_length(unit), 1e-9);
  }
  double contribution(const Term& t, double len, double tf) const {
    double p_unit = tf / len;
    return t.f_q * std::log(1.0 + ((1.0 - lambda) * p_unit) /
                                      (lambda * t.p_collection));
  }
};

template <class Scorer>
Scorer make_scorer(const InvertedIndex& index, const ScoringOptions& options,
                   const ClusterCollectionStats* global);

template <>
PaperScorer make_scorer<PaperScorer>(const InvertedIndex& index,
                                     const ScoringOptions& options,
                                     const ClusterCollectionStats* global) {
  (void)options;
  return PaperScorer{index, global};
}

template <>
Bm25Scorer make_scorer<Bm25Scorer>(const InvertedIndex& index,
                                   const ScoringOptions& options,
                                   const ClusterCollectionStats* global) {
  Bm25Scorer s{index, global};
  s.k1 = options.bm25_k1;
  s.b = options.bm25_b;
  s.n = static_cast<double>(global == nullptr ? index.num_units()
                                              : global->num_units);
  s.avg_len = std::max(
      global == nullptr ? index.avg_unit_length() : global->avg_unit_length,
      1e-9);
  return s;
}

template <>
LmScorer make_scorer<LmScorer>(const InvertedIndex& index,
                               const ScoringOptions& options,
                               const ClusterCollectionStats* global) {
  LmScorer s{index, global};
  s.lambda = std::clamp(options.lm_lambda, 1e-6, 1.0 - 1e-6);
  s.collection_len = std::max(global == nullptr ? index.collection_length()
                                                : global->collection_length,
                              1e-9);
  return s;
}

// --- Map-based reference ----------------------------------------------
//
// The historic term-at-a-time algorithm: every admitted term's postings
// run folds into a unit -> score map in query (TermId-ascending) order.
template <class Scorer>
std::vector<ScoredUnit> score_units_reference(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    ScoreStats* stats) {
  Scorer scorer = make_scorer<Scorer>(index, options, global);
  const FlatPostings& flat = index.flat();
  std::unordered_map<uint32_t, double> acc;
  for (const auto& [term, f_q] : query.entries()) {
    if (f_q <= 0.0) continue;
    const FlatTermMeta* meta = flat.term_meta(term);
    if (meta == nullptr) continue;
    typename Scorer::Term t;
    if (!scorer.setup(term, f_q, *meta, &t)) continue;
    FlatPostings::Cursor cur = flat.cursor(*meta);
    uint32_t unit = 0;
    double tf = 0.0;
    while (cur.next(&unit, &tf)) {
      acc[unit] += scorer.contribution(t, scorer.unit_input(unit), tf);
    }
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
//
// The same accumulation as the reference with the map replaced by a dense
// per-unit array (units are dense ids, and a query touches most of them)
// and each unit's operand computed once per call instead of once per
// posting. A unit's score is therefore the same additions, starting from
// 0.0, of the same contribution() values in the same term order. The
// selection pass keeps what the reference's filter + sort keeps: the
// candidate order (score desc, doc asc) is total because a document has
// at most one unit per cluster index.
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
    std::vector<double> in;
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
    if (scorer.setup(term, f_q, *meta, &t)) terms.emplace_back(t, meta);
  }
  if (terms.empty()) return {};

  const auto num_units = static_cast<uint32_t>(index.num_units());
  std::vector<double>& in = ws.in;
  std::vector<double>& acc = ws.acc;
  in.resize(num_units);
  for (uint32_t u = 0; u < num_units; ++u) in[u] = scorer.unit_input(u);
  acc.assign(num_units, 0.0);
  for (const auto& [t, meta] : terms) {
    FlatPostings::Cursor cur = flat.cursor(*meta);
    uint32_t unit = 0;
    double tf = 0.0;
    while (cur.next(&unit, &tf)) {
      acc[unit] += scorer.contribution(t, in[unit], tf);
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
    const ScoringOptions& options, const ClusterCollectionStats* global,
    ScoreStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return score_units_reference<Bm25Scorer>(index, query, options,
                                                global, stats);
    case ScoringFunction::kQueryLikelihood:
      return score_units_reference<LmScorer>(index, query, options, global,
                                              stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return score_units_reference<PaperScorer>(index, query, options, global,
                                             stats);
}

std::vector<ScoredUnit> score_units(const InvertedIndex& index,
                                    const TermVector& query,
                                    const ScoringOptions& options,
                                    const ClusterCollectionStats* global) {
  return score_units_counted(index, query, options, global, nullptr);
}

std::vector<ScoredUnit> score_units_maxscore(
    const InvertedIndex& index, const TermVector& query,
    const ScoringOptions& options, const ClusterCollectionStats* global,
    const std::vector<uint32_t>& unit_doc, uint32_t exclude_doc,
    size_t top_n, double score_threshold, ScoreStats* stats) {
  obs::TraceScope score(obs::Stage::kScore);
  switch (options.function) {
    case ScoringFunction::kBm25:
      return dense_select(index, query,
                          make_scorer<Bm25Scorer>(index, options, global),
                          unit_doc, exclude_doc, top_n, score_threshold,
                          stats);
    case ScoringFunction::kQueryLikelihood:
      return dense_select(index, query,
                          make_scorer<LmScorer>(index, options, global),
                          unit_doc, exclude_doc, top_n, score_threshold,
                          stats);
    case ScoringFunction::kPaperTfIdf:
      break;
  }
  return dense_select(index, query,
                      make_scorer<PaperScorer>(index, options, global),
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
