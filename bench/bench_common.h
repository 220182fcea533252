#ifndef IBSEG_BENCH_BENCH_COMMON_H_
#define IBSEG_BENCH_BENCH_COMMON_H_

// Shared setup for the paper-reproduction benchmark binaries: the
// calibrated corpus profiles (one per paper dataset), relevance judging
// against the generator's scenario ground truth, and scaling via the
// IBSEG_BENCH_SCALE environment variable.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/methods.h"
#include "datagen/post_generator.h"
#include "eval/precision.h"

namespace ibseg {
namespace bench {

/// Scale factor for corpus sizes (default 1.0). Set IBSEG_BENCH_SCALE=10
/// to run the scaling benches closer to paper-sized corpora.
inline double bench_scale() {
  const char* env = std::getenv("IBSEG_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// The calibrated evaluation profile of one paper dataset (see DESIGN.md,
/// substitution table). The three domains differ in intention inventory,
/// segment-count mix and post length, mirroring HP Forum / TripAdvisor /
/// StackOverflow.
inline GeneratorOptions eval_profile(ForumDomain domain, size_t num_posts,
                                     uint64_t seed = 11) {
  GeneratorOptions gen;
  gen.domain = domain;
  gen.num_posts = num_posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  gen.background_noise = 0.9;
  gen.mention_noise = 0.0;
  gen.contaminant_ratio = 3.0;
  gen.scenario_pool_size = 6;
  return gen;
}

/// The q-quantile of `values` (linear interpolation between order
/// statistics); 0 for no values.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Default corpus size per domain for the quality benches (scaled).
inline size_t eval_corpus_size() {
  return static_cast<size_t>(600 * bench_scale());
}

/// Mean precision of `method` over every `stride`-th post as the reference
/// query, with same-scenario ground truth (the stand-in for the paper's
/// human judgments; Sec. 9.2.1).
inline PrecisionSummary evaluate_method(const RelatedPostMethod& method,
                                        const SyntheticCorpus& corpus,
                                        size_t num_docs, int k = 5,
                                        size_t stride = 2) {
  std::vector<double> precisions;
  for (DocId q = 0; q < num_docs; q += static_cast<DocId>(stride)) {
    auto related = method.find_related(q, k);
    std::vector<DocId> ids;
    ids.reserve(related.size());
    for (const ScoredDoc& sd : related) ids.push_back(sd.doc);
    int scenario = corpus.posts[q].scenario_id;
    precisions.push_back(list_precision(ids, [&](DocId d) {
      return corpus.posts[d].scenario_id == scenario;
    }));
  }
  return summarize_precision(precisions);
}

inline const std::vector<ForumDomain>& all_domains() {
  static const std::vector<ForumDomain> kDomains = {
      ForumDomain::kTechSupport, ForumDomain::kTravel,
      ForumDomain::kProgramming};
  return kDomains;
}

/// Paper-dataset display name for a domain.
inline const char* paper_dataset_name(ForumDomain domain) {
  switch (domain) {
    case ForumDomain::kTechSupport: return "HP Forum (synthetic)";
    case ForumDomain::kTravel: return "TripAdvisor (synthetic)";
    case ForumDomain::kProgramming: return "StackOverflow (synthetic)";
    case ForumDomain::kHealth: return "Medhelp (synthetic)";
  }
  return "?";
}

}  // namespace bench
}  // namespace ibseg

#endif  // IBSEG_BENCH_BENCH_COMMON_H_
