#include "index/fulltext_matcher.h"

#include <algorithm>

#include "index/scoring.h"

namespace ibseg {

FullTextMatcher FullTextMatcher::build(const std::vector<Document>& docs,
                                       Vocabulary& vocab,
                                       const ScoringOptions& scoring) {
  FullTextMatcher m;
  m.scoring_ = scoring;
  GlobalIndexStats board(1, MatcherOptions().min_norm_fraction);
  for (const Document& doc : docs) {
    TermVector terms =
        build_term_vector(doc.tokens(), 0, doc.tokens().size(), vocab);
    board.append(0, terms, /*refresh_now=*/false);
    uint32_t unit = m.index_.add_unit(terms);
    m.unit_doc_.push_back(doc.id());
    m.unit_terms_.push_back(std::move(terms));
    m.doc_unit_[doc.id()] = unit;
  }
  board.refresh(0);
  m.stats_ = board.cluster(0);
  m.index_.finalize();
  return m;
}

std::vector<ScoredDoc> FullTextMatcher::find_related(DocId query,
                                                     int k) const {
  std::vector<ScoredDoc> out;
  auto it = doc_unit_.find(query);
  if (it == doc_unit_.end() || k <= 0) return out;
  const TermVector& query_terms = unit_terms_[it->second];

  std::vector<ScoredUnit> hits =
      score_units(index_, query_terms, scoring_, *stats_);
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [&](const ScoredUnit& h) {
                              return unit_doc_[h.unit] == query;
                            }),
             hits.end());
  keep_top_n(hits, static_cast<size_t>(k));
  out.reserve(hits.size());
  for (const ScoredUnit& h : hits) {
    out.push_back(ScoredDoc{unit_doc_[h.unit], h.score});
  }
  return out;
}

}  // namespace ibseg
