#ifndef IBSEG_TESTS_ORACLE_H_
#define IBSEG_TESTS_ORACLE_H_

// The reference every differential suite compares the serving facade
// against: the paper's single-pipeline Algorithm 2 (RelatedPostPipeline),
// dressed in the facade's query/ingest surface so a test can swap one for
// the other. Ingests take the same fresh-id sequence ShardedServing hands
// out, query results carry the same (epoch, num_docs) coordinates, and
// recluster() is the cold offline rebuild a quiescent recluster must
// equal. Single-threaded by design: it is the oracle, not the system
// under test.

#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/sharded_serving.h"

namespace ibseg {

class Oracle {
 public:
  using QueryResult = ShardedServing::QueryResult;

  explicit Oracle(std::vector<Document> docs,
                  const PipelineOptions& options = {})
      : pipeline_(RelatedPostPipeline::build(std::move(docs), options)),
        seed_docs_(pipeline_.docs().size()) {}

  DocId add_post(std::string text) {
    return pipeline_.add_post(std::move(text));
  }

  std::vector<DocId> add_posts(std::vector<std::string> texts) {
    std::vector<DocId> ids;
    for (std::string& text : texts) ids.push_back(add_post(std::move(text)));
    return ids;
  }

  /// Replays one publication under the id the facade reserved for it.
  /// Concurrent ingests publish out of id order; the facade must equal
  /// the pipeline fed its recorded publication order.
  void publish(DocId id, std::string text) {
    pipeline_.ingest(pipeline_.prepare_post(id, std::move(text)));
  }

  QueryResult find_related(DocId query, int k) const {
    return {pipeline_.find_related(query, k), epoch(), num_docs()};
  }

  QueryResult find_related_external(const Document& doc, int k) const {
    return {pipeline_.find_related_external(doc, k), epoch(), num_docs()};
  }

  /// The full offline phase over the current corpus (what a quiescent
  /// ShardedServing::recluster must reproduce bit for bit). Returns the
  /// number of reclusters so far, like the facade's generation.
  uint64_t recluster() {
    pipeline_ = RelatedPostPipeline::rebuild(
        pipeline_.docs(), pipeline_.segmentations(), pipeline_.options());
    return ++generation_;
  }

  uint64_t epoch() const { return num_docs() - seed_docs_; }
  size_t num_docs() const { return pipeline_.docs().size(); }
  const std::vector<Document>& docs() const { return pipeline_.docs(); }

 private:
  RelatedPostPipeline pipeline_;
  size_t seed_docs_;
  uint64_t generation_ = 0;
};

}  // namespace ibseg

#endif  // IBSEG_TESTS_ORACLE_H_
