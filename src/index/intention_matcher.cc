#include "index/intention_matcher.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "obs/trace.h"
#include "util/vector_math.h"

namespace ibseg {

IntentionMatcher IntentionMatcher::build(const std::vector<Document>& docs,
                                         const IntentionClustering& clustering,
                                         Vocabulary& vocab,
                                         const MatcherOptions& options) {
  IntentionMatcher m;
  m.options_ = options;
  m.indices_.resize(static_cast<size_t>(clustering.num_clusters()));

  std::map<DocId, size_t> doc_index;
  for (size_t d = 0; d < docs.size(); ++d) doc_index[docs[d].id()] = d;

  for (int c = 0; c < clustering.num_clusters(); ++c) {
    ClusterIndex& ci = m.indices_[static_cast<size_t>(c)];
    ci.index.min_norm_fraction = options.min_norm_fraction;
    for (size_t seg_idx : clustering.cluster_members()[static_cast<size_t>(c)]) {
      const RefinedSegment& seg = clustering.segments()[seg_idx];
      const Document& doc = docs[doc_index[seg.doc]];
      TermVector terms;
      for (auto [b, e] : seg.ranges) {
        size_t tok_b = doc.sentences()[b].token_begin;
        size_t tok_e = doc.sentences()[e - 1].token_end;
        terms.merge(build_term_vector(doc.tokens(), tok_b, tok_e, vocab));
      }
      uint32_t unit = ci.index.add_unit(terms);
      ci.unit_doc.push_back(seg.doc);
      ci.unit_terms.push_back(std::move(terms));
      m.doc_units_[seg.doc].emplace_back(c, unit);
      ++m.total_segments_;
    }
    ci.index.finalize();
  }
  return m;
}

std::vector<IntentionMatcher::MatchExplanation> IntentionMatcher::explain(
    DocId query, DocId candidate, int k) const {
  std::vector<MatchExplanation> out;
  auto it = doc_units_.find(query);
  if (it == doc_units_.end() || k <= 0) return out;
  int n = options_.top_n_factor * k;
  for (auto [cluster, unit] : it->second) {
    (void)unit;
    auto list = match_single_intention(cluster, query, n);
    for (size_t rank = 0; rank < list.size(); ++rank) {
      if (list[rank].doc != candidate) continue;
      MatchExplanation e;
      e.cluster = cluster;
      e.score = list[rank].score;
      e.rank = static_cast<int>(rank) + 1;
      out.push_back(e);
      break;
    }
  }
  return out;
}

std::map<int, TermVector> IntentionMatcher::assign_external(
    const Document& doc, const Segmentation& segmentation,
    const std::vector<std::vector<double>>& centroids,
    const Vocabulary& vocab, size_t num_clusters,
    const FeatureVectorOptions& features) {
  // Nearest-centroid assignment + refinement, mirroring add_document.
  std::map<int, TermVector> per_cluster_terms;
  obs::TraceScope assign(obs::Stage::kClusterAssign);
  for (auto [b, e] : segmentation.segments()) {
    if (b == e) continue;
    std::vector<double> f = segment_feature_vector(doc, b, e, features);
    int best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (size_t c = 0; c < centroids.size() && c < num_clusters; ++c) {
      double d = euclidean_distance(f, centroids[c]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(c);
      }
    }
    size_t tok_b = doc.sentences()[b].token_begin;
    size_t tok_e = doc.sentences()[e - 1].token_end;
    per_cluster_terms[best].merge(
        build_term_vector_lookup(doc.tokens(), tok_b, tok_e, vocab));
  }
  return per_cluster_terms;
}

std::vector<ScoredDoc> IntentionMatcher::find_related_external(
    const Document& doc, const Segmentation& segmentation,
    const std::vector<std::vector<double>>& centroids,
    const Vocabulary& vocab, int k,
    const FeatureVectorOptions& features) const {
  std::vector<ScoredDoc> out;
  if (k <= 0 || indices_.empty()) return out;

  std::map<int, TermVector> per_cluster_terms = assign_external(
      doc, segmentation, centroids, vocab, indices_.size(), features);

  int n = options_.top_n_factor * k;
  std::unordered_map<DocId, double> merged;
  for (const auto& [cluster, terms] : per_cluster_terms) {
    if (terms.empty()) continue;
    double weight = cluster_weight(cluster);
    if (weight <= 0.0) continue;
    std::vector<ScoredDoc> list =
        match_cluster_terms(cluster, terms, kNoDocId, n);
    for (const ScoredDoc& sd : list) {
      merged[sd.doc] += weight * sd.score;
    }
  }
  obs::TraceScope top_k(obs::Stage::kTopK);
  out.reserve(merged.size());
  for (const auto& [d, score] : merged) out.push_back(ScoredDoc{d, score});
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

double IntentionMatcher::add_document(
    const Document& doc, const Segmentation& segmentation,
    const std::vector<std::vector<double>>& centroids, Vocabulary& vocab,
    const FeatureVectorOptions& features) {
  assert(doc_units_.find(doc.id()) == doc_units_.end());
  assert(!indices_.empty());
  // Assign each raw segment to the nearest centroid, merging same-cluster
  // segments (refinement).
  std::map<int, TermVector> per_cluster_terms;
  double max_assign_distance = 0.0;
  {
    obs::TraceScope assign(obs::Stage::kClusterAssign);
    for (auto [b, e] : segmentation.segments()) {
      if (b == e) continue;
      std::vector<double> f = segment_feature_vector(doc, b, e, features);
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (size_t c = 0; c < centroids.size() && c < indices_.size(); ++c) {
        double d = euclidean_distance(f, centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = static_cast<int>(c);
        }
      }
      if (best_d != std::numeric_limits<double>::max()) {
        max_assign_distance = std::max(max_assign_distance, best_d);
      }
      size_t tok_b = doc.sentences()[b].token_begin;
      size_t tok_e = doc.sentences()[e - 1].token_end;
      per_cluster_terms[best].merge(
          build_term_vector(doc.tokens(), tok_b, tok_e, vocab));
    }
  }
  for (auto& [cluster, terms] : per_cluster_terms) {
    ClusterIndex& ci = indices_[static_cast<size_t>(cluster)];
    if (stats_sink_ != nullptr) stats_sink_->append(cluster, terms);
    uint32_t unit = ci.index.add_unit(terms);
    ci.index.finalize();
    ci.unit_doc.push_back(doc.id());
    ci.unit_terms.push_back(std::move(terms));
    doc_units_[doc.id()].emplace_back(cluster, unit);
    ++total_segments_;
  }
  return max_assign_distance;
}

std::vector<std::pair<int, TermVector>> IntentionMatcher::doc_cluster_terms(
    DocId doc) const {
  std::vector<std::pair<int, TermVector>> out;
  auto it = doc_units_.find(doc);
  if (it == doc_units_.end()) return out;
  out.reserve(it->second.size());
  for (auto [cluster, unit] : it->second) {
    const ClusterIndex& ci = indices_[static_cast<size_t>(cluster)];
    out.emplace_back(cluster, ci.unit_terms[unit]);
  }
  return out;
}

std::vector<ScoredDoc> IntentionMatcher::match_single_intention(
    int cluster, DocId query, int n) const {
  std::vector<ScoredDoc> out;
  if (cluster < 0 || cluster >= num_clusters() || n <= 0) return out;
  const ClusterIndex& ci = indices_[static_cast<size_t>(cluster)];

  // Locate the query's segment in this cluster (after refinement there is
  // at most one; Sec. 7 footnote 1).
  auto it = doc_units_.find(query);
  if (it == doc_units_.end()) return out;
  const TermVector* query_terms = nullptr;
  for (auto [c, unit] : it->second) {
    if (c == cluster) {
      query_terms = &ci.unit_terms[unit];
      break;
    }
  }
  if (query_terms == nullptr || query_terms->empty()) return out;
  return match_cluster_terms(cluster, *query_terms, query, n);
}

std::vector<ScoredDoc> IntentionMatcher::match_cluster_terms(
    int cluster, const TermVector& terms, DocId exclude, int n,
    const ClusterCollectionStats* global) const {
  std::vector<ScoredDoc> out;
  if (cluster < 0 || cluster >= num_clusters() || n <= 0) return out;
  if (terms.empty()) return out;
  const ClusterIndex& ci = indices_[static_cast<size_t>(cluster)];

  if (!options_.exhaustive_fallback) {
    // Dense kernel: exclusion, threshold and (score desc, DocId asc)
    // selection all happen inside score_units_maxscore, against the sealed
    // flat postings. Bit-identical to the reference path below — the
    // differential suite sweeps the equivalence.
    ScoreStats stats;
    std::vector<ScoredUnit> hits = score_units_maxscore(
        ci.index, terms, options_.scoring, global, ci.unit_doc, exclude,
        static_cast<size_t>(n), options_.score_threshold, &stats);
    work_->units_scored.fetch_add(stats.units_scored,
                                  std::memory_order_relaxed);
    out.reserve(hits.size());
    for (const ScoredUnit& h : hits) {
      out.push_back(ScoredDoc{ci.unit_doc[h.unit], h.score});
    }
    return out;
  }

  ScoreStats reference_stats;
  std::vector<ScoredUnit> hits = score_units_counted(
      ci.index, terms, options_.scoring, global, &reference_stats);
  work_->units_scored.fetch_add(reference_stats.units_scored,
                                std::memory_order_relaxed);
  // Exclude the query document's own segment(s).
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const ScoredUnit& h) {
                              return ci.unit_doc[h.unit] == exclude;
                            }),
             hits.end());
  if (options_.score_threshold > 0.0) {
    hits.erase(std::remove_if(hits.begin(), hits.end(),
                              [&](const ScoredUnit& h) {
                                return h.score < options_.score_threshold;
                              }),
               hits.end());
  }
  // Rank (and, in top-n mode, select) on (score, DocId) rather than
  // (score, unit id): unit ids encode insertion order, so a tie at the
  // list boundary used to keep whichever segment happened to be indexed
  // first — deterministic for one build, but not a property of the
  // corpus. DocId ties make every execution (serial, parallel, rebuilt)
  // agree, which the differential suite relies on.
  out.reserve(hits.size());
  for (const ScoredUnit& h : hits) {
    out.push_back(ScoredDoc{ci.unit_doc[h.unit], h.score});
  }
  auto by_score_then_doc = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (options_.score_threshold <= 0.0 &&
      out.size() > static_cast<size_t>(n)) {
    std::partial_sort(out.begin(), out.begin() + n, out.end(),
                      by_score_then_doc);
    out.resize(static_cast<size_t>(n));
  } else {
    std::sort(out.begin(), out.end(), by_score_then_doc);
  }
  return out;
}

double IntentionMatcher::cluster_weight(int cluster) const {
  return static_cast<size_t>(cluster) < options_.cluster_weights.size()
             ? options_.cluster_weights[static_cast<size_t>(cluster)]
             : 1.0;
}

std::vector<ScoredDoc> IntentionMatcher::find_related(DocId query,
                                                      int k) const {
  std::vector<ScoredDoc> out;
  if (k <= 0) return out;
  auto it = doc_units_.find(query);
  if (it == doc_units_.end()) return out;
  const std::vector<std::pair<int, uint32_t>>& clusters = it->second;

  int n = options_.top_n_factor * k;
  // Algorithm 2, phase 1: the per-intention lists, one per cluster where
  // the query has a segment (zero-weight clusters stay empty).
  std::vector<std::vector<ScoredDoc>> lists(clusters.size());
  for (size_t i = 0; i < clusters.size(); ++i) {
    int cluster = clusters[i].first;
    if (cluster_weight(cluster) <= 0.0) continue;
    lists[i] = match_single_intention(cluster, query, n);
  }

  // Phase 2: sum the (optionally weighted) per-intention scores of every
  // doc appearing in at least one list, in cluster order — floating-point
  // accumulation order is part of the result contract (the sharded
  // gather reproduces it bit for bit).
  obs::TraceScope top_k(obs::Stage::kTopK);
  std::unordered_map<DocId, double> merged;
  for (size_t i = 0; i < clusters.size(); ++i) {
    double weight = cluster_weight(clusters[i].first);
    for (const ScoredDoc& sd : lists[i]) {
      merged[sd.doc] += weight * sd.score;
    }
  }
  out.reserve(merged.size());
  for (const auto& [doc, score] : merged) out.push_back(ScoredDoc{doc, score});
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

}  // namespace ibseg
