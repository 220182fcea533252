#ifndef IBSEG_INDEX_FULLTEXT_MATCHER_H_
#define IBSEG_INDEX_FULLTEXT_MATCHER_H_

#include <map>
#include <memory>
#include <vector>

#include "index/intention_matcher.h"
#include "index/inverted_index.h"
#include "seg/document.h"
#include "text/vocabulary.h"

namespace ibseg {

/// The *FullText* baseline (Sec. 9.2): whole-post matching with the
/// MySQL-5.5.3 weighting of Eq. 7 and the same probabilistic-IDF ranking,
/// i.e., exactly the intention machinery with a single index over
/// unsegmented posts (one cluster, scored against a one-cluster statistics
/// board). This is the method the paper reports 10-12% mean precision
/// below IntentIntent-MR.
class FullTextMatcher {
 public:
  /// \brief Builds the single whole-post index over `docs`.
  /// \param docs the corpus; one unit per document
  /// \param vocab corpus-shared vocabulary (extended with unseen terms)
  /// \param scoring the segment-comparison function (paper Eq. 9 default)
  static FullTextMatcher build(const std::vector<Document>& docs,
                               Vocabulary& vocab,
                               const ScoringOptions& scoring = {});

  /// Top-k documents related to reference document `query` (excluded from
  /// the result).
  std::vector<ScoredDoc> find_related(DocId query, int k) const;

  /// \brief Number of indexed documents.
  size_t num_docs() const { return unit_doc_.size(); }

 private:
  InvertedIndex index_;
  /// The board's snapshot of the whole-post collection's statistics.
  std::shared_ptr<const ClusterCollectionStats> stats_;
  std::vector<DocId> unit_doc_;
  std::vector<TermVector> unit_terms_;
  std::map<DocId, uint32_t> doc_unit_;
  ScoringOptions scoring_;
};

}  // namespace ibseg

#endif  // IBSEG_INDEX_FULLTEXT_MATCHER_H_
