// Intentions over time, promoted to a pass/fail quality gate for the
// background re-clustering epoch (docs/ARCHITECTURE.md §9).
//
// Part 1 reproduces the paper's observational side experiment (Sec. 9.2):
// "we have investigated the way that intentions change over time by
// performing a comparison between the intentions in the posts of two
// consecutive years ... and noticed no significant changes." Two
// programming-forum corpora with disjoint seeds and scenario populations
// ("year 1" and "year 2") are clustered independently and their intention
// centroids aligned by greedy best cosine match; near-1 similarities
// reproduce the finding.
//
// Part 2 is the gate — drift that actually hurts. Within one genre the
// paper's stability finding holds and nearest-centroid ingest loses
// almost nothing, so the gate uses the scenario where the streaming
// approximation genuinely degrades: a THIN seed (a small year-1
// programming corpus, so the offline clustering is built from a sliver
// of what the index will eventually hold) followed by a 4x larger
// year-2 stream from a different forum genre (travel). The stale
// centroids misfit the stream, and year-2 queries are answered under
// year-1 intention structure ("drifted").
// Retrieval quality over the year-2 queries — meanPrec@5 against the
// generator's same-scenario ground truth and graded nDCG@5 (2 = same
// scenario, 1 = same component; the graded_eval harness judgments) — is
// measured in three conditions:
//
//   fresh       cold build over the combined two-year corpus (the ideal
//               a recluster aims for),
//   drifted     year-1 build + year-2 streaming ingests,
//   reclustered the drifted pipeline after one recluster() epoch.
//
// GATE: the recluster must recover at least kMinRecovery of the quality
// lost to drift, per metric:
//   (reclustered - drifted) / (fresh - drifted) >= kMinRecovery
// whenever drift cost anything (fresh > drifted). The differential suite
// proves reclustered == fresh bit-identically, so the expected recovered
// fraction is exactly 1.0; the gate's slack exists only so the bench
// fails loudly on a real regression rather than flaking on a tie. A
// failed gate exits non-zero, which fails scripts/reproduce.sh.
//
// IBSEG_BENCH_SCALE scales both corpora.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/intention_clusters.h"
#include "core/sharded_serving.h"
#include "eval/ndcg.h"
#include "eval/precision.h"
#include "seg/segmenter.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/vector_math.h"

namespace ibseg {
namespace {

constexpr double kMinRecovery = 0.9;
constexpr int kTopK = 5;

IntentionClustering cluster_year(uint64_t seed, size_t posts) {
  GeneratorOptions gen =
      bench::eval_profile(ForumDomain::kProgramming, posts, seed);
  SyntheticCorpus corpus = generate_corpus(gen);
  std::vector<Document> docs = analyze_corpus(corpus);
  Segmenter segmenter = Segmenter::cm_tiling();
  Vocabulary vocab;
  std::vector<Segmentation> segs(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    segs[d] = segmenter.segment(docs[d], vocab);
  }
  return IntentionClustering::build(docs, segs);
}

// ----------------------- Part 1: centroid stability table (Sec. 9.2) ----

void centroid_stability(size_t posts) {
  IntentionClustering year1 = cluster_year(101, posts);
  IntentionClustering year2 = cluster_year(202, posts);

  std::printf("== Intentions over time (Sec. 9.2 side experiment) ==\n");
  std::printf("Year 1: %d clusters; Year 2: %d clusters\n\n",
              year1.num_clusters(), year2.num_clusters());

  TablePrinter t({"Year-1 cluster", "size", "best Year-2 match",
                  "centroid cosine"});
  double total = 0.0;
  for (int c1 = 0; c1 < year1.num_clusters(); ++c1) {
    const auto& centroid = year1.centroids()[static_cast<size_t>(c1)];
    int best = -1;
    double best_sim = -1.0;
    for (int c2 = 0; c2 < year2.num_clusters(); ++c2) {
      double sim = cosine_similarity(
          centroid, year2.centroids()[static_cast<size_t>(c2)]);
      if (sim > best_sim) {
        best_sim = sim;
        best = c2;
      }
    }
    total += best_sim;
    t.add_row({str_format("I%d", c1),
               str_format("%zu",
                          year1.cluster_members()[static_cast<size_t>(c1)]
                              .size()),
               str_format("I%d", best), str_format("%.3f", best_sim)});
  }
  t.print(std::cout);
  std::printf("\nMean best-match centroid cosine: %.3f\n",
              total / year1.num_clusters());
  std::printf("(Values near 1 reproduce the paper's 'no significant"
              " changes' finding: the intention structure is a property of"
              " the forum genre, not of the particular posts.)\n\n");
}

// ------------------------------- Part 2: recluster recovery gate --------

/// Binary meanPrec@k and graded mean nDCG@k of `serving` over every
/// year-2 post as the query, judged against year-2 ground truth. Year-1
/// documents are a different scenario population, so they grade 0 — a
/// drifted pipeline that keeps ranking year-1 posts for year-2 queries
/// loses on both metrics.
struct Quality {
  double mean_prec = 0.0;
  double mean_ndcg = 0.0;
};

Quality evaluate(const ShardedServing& serving,
                 const SyntheticCorpus& year2, size_t year1_docs) {
  const size_t n2 = year2.posts.size();
  auto grade_of = [&](DocId q, DocId d) {
    if (d < year1_docs || d == q) return 0;
    const GeneratedPost& cand = year2.posts[d - year1_docs];
    const GeneratedPost& query = year2.posts[q - year1_docs];
    if (cand.scenario_id == query.scenario_id) return 2;
    if (cand.component_id == query.component_id) return 1;
    return 0;
  };
  std::vector<double> precisions;
  double ndcg_total = 0.0;
  for (size_t j = 0; j < n2; ++j) {
    DocId q = static_cast<DocId>(year1_docs + j);
    auto result = serving.find_related(q, kTopK);
    std::vector<DocId> ids;
    ids.reserve(result.results.size());
    for (const ScoredDoc& sd : result.results) ids.push_back(sd.doc);
    precisions.push_back(list_precision(
        ids, [&](DocId d) { return grade_of(q, d) == 2; }));
    std::vector<int> ideal;
    ideal.reserve(year1_docs + n2);
    for (size_t d = 0; d < year1_docs + n2; ++d) {
      if (static_cast<DocId>(d) != q) {
        ideal.push_back(grade_of(q, static_cast<DocId>(d)));
      }
    }
    ndcg_total += ndcg(ids, [&](DocId d) { return grade_of(q, d); },
                       std::move(ideal));
  }
  Quality quality;
  quality.mean_prec = summarize_precision(precisions).mean;
  quality.mean_ndcg = n2 > 0 ? ndcg_total / static_cast<double>(n2) : 0.0;
  return quality;
}

/// Fraction of the drift-induced quality loss the recluster won back;
/// 1.0 when drift cost nothing (there was nothing to recover).
double recovered_fraction(double fresh, double drifted, double reclustered) {
  const double lost = fresh - drifted;
  if (lost <= 1e-12) return 1.0;
  return (reclustered - drifted) / lost;
}

int recovery_gate(size_t year1_posts, size_t year2_posts) {
  SyntheticCorpus year1 = generate_corpus(
      bench::eval_profile(ForumDomain::kProgramming, year1_posts, 101));
  SyntheticCorpus year2 = generate_corpus(
      bench::eval_profile(ForumDomain::kTravel, year2_posts, 202));
  const size_t n1 = year1.posts.size();

  // Drifted: year-1 offline build, year-2 arrives through streaming
  // nearest-centroid ingest (ids n1..n1+n2-1, the order add_post assigns).
  auto drifted_serving = ShardedServing::create(analyze_corpus(year1));
  ShardedServing& drifted = *drifted_serving;
  for (const GeneratedPost& p : year2.posts) drifted.add_post(p.text);

  // Fresh: the cold two-year build the recluster is measured against,
  // with the year-2 documents at the very ids add_post handed out.
  std::vector<Document> combined = analyze_corpus(year1);
  for (size_t j = 0; j < year2.posts.size(); ++j) {
    combined.push_back(Document::analyze(static_cast<DocId>(n1 + j),
                                         year2.posts[j].text));
  }
  auto fresh = ShardedServing::create(std::move(combined));

  const Quality q_drifted = evaluate(drifted, year2, n1);
  const Quality q_fresh = evaluate(*fresh, year2, n1);
  drifted.recluster();
  const Quality q_reclustered = evaluate(drifted, year2, n1);

  const double rec_prec = recovered_fraction(
      q_fresh.mean_prec, q_drifted.mean_prec, q_reclustered.mean_prec);
  const double rec_ndcg = recovered_fraction(
      q_fresh.mean_ndcg, q_drifted.mean_ndcg, q_reclustered.mean_ndcg);

  std::printf("== Recluster recovery gate (year-2 queries, top-%d) ==\n",
              kTopK);
  TablePrinter t({"condition", "meanPrec@5", "nDCG@5"});
  t.add_row({"fresh (cold two-year build)",
             str_format("%.3f", q_fresh.mean_prec),
             str_format("%.3f", q_fresh.mean_ndcg)});
  t.add_row({"drifted (year-1 build + ingest)",
             str_format("%.3f", q_drifted.mean_prec),
             str_format("%.3f", q_drifted.mean_ndcg)});
  t.add_row({"reclustered (one epoch)",
             str_format("%.3f", q_reclustered.mean_prec),
             str_format("%.3f", q_reclustered.mean_ndcg)});
  t.print(std::cout);
  std::printf("\nRecovered fraction of drift loss: meanPrec@5 %.3f,"
              " nDCG@5 %.3f (gate: >= %.2f)\n",
              rec_prec, rec_ndcg, kMinRecovery);
  std::printf("Offline generation after gate: %llu\n",
              static_cast<unsigned long long>(drifted.offline_generation()));

  if (rec_prec < kMinRecovery || rec_ndcg < kMinRecovery) {
    std::fprintf(stderr,
                 "GATE FAILED: recluster recovered %.3f (prec) / %.3f"
                 " (ndcg) of the quality lost to drift; required %.2f.\n"
                 "The swap is supposed to be bit-identical to the fresh"
                 " build — see tests/recluster_differential_test.cc.\n",
                 rec_prec, rec_ndcg, kMinRecovery);
    return 1;
  }
  std::printf("GATE PASSED\n");
  return 0;
}

int run() {
  centroid_stability(static_cast<size_t>(400 * bench::bench_scale()));
  return recovery_gate(static_cast<size_t>(48 * bench::bench_scale()),
                       static_cast<size_t>(192 * bench::bench_scale()));
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
