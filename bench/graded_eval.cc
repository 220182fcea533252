// Graded-relevance companion to Table 4, promoted to a pass/fail quality
// gate over adversarial CQA workloads.
//
// Part 1 reproduces the original study: the paper chooses binary
// judgments ("we are interested in returning to the user only highly
// related posts", Sec. 9.2.1, citing Kekalainen 2005 on binary vs graded
// relevance); this part evaluates the same runs under graded relevance —
// grade 2 for same-scenario posts (same problem), grade 1 for
// same-component posts (the paper's Doc A/B pair: same hardware,
// different question), 0 otherwise — reporting nDCG@5 next to binary
// mean precision.
//
// Part 2 is the GATE. Three adversarial workloads modeled on
// SemEval-2016 Task 3 (src/datagen/adversarial.h) — near-duplicate
// question pairs, bursty hot-topic streams (the burst arrives as ONLINE
// ingests after the offline build), and cross-domain confounder
// vocabulary — are served by the production pipeline and judged at
// meanPrec@5 against the generator's same-scenario ground truth. Every
// profile has a calibrated floor; any profile scoring below its floor
// prints GATE FAILED and exits non-zero, which fails
// scripts/reproduce.sh (same contract as bench/drift_over_time).
// Results are recorded in BENCH_adversarial_eval.json; reproduce.sh
// checks the schema. IBSEG_BENCH_SCALE scales every corpus.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/harness.h"
#include "core/pipeline.h"
#include "datagen/adversarial.h"
#include "eval/ndcg.h"
#include "eval/precision.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

// ----------------- Part 1: graded-relevance companion to Table 4 --------

void graded_table() {
  SyntheticCorpus corpus = generate_corpus(bench::eval_profile(
      ForumDomain::kTechSupport,
      static_cast<size_t>(400 * bench::bench_scale())));
  std::vector<Document> docs = analyze_corpus(corpus);

  const std::vector<MethodKind> methods = {
      MethodKind::kFullText, MethodKind::kContentMR,
      MethodKind::kSentIntentMR, MethodKind::kIntentIntentMR};
  MethodConfig config;

  TablePrinter t({"Method", "binary meanPrec@5", "graded nDCG@5"});
  for (MethodKind kind : methods) {
    auto method = build_method(kind, docs, config, nullptr);
    double prec_total = 0.0;
    double ndcg_total = 0.0;
    size_t queries = 0;
    for (DocId q = 0; q < docs.size(); q += 2) {
      int scenario = corpus.posts[q].scenario_id;
      int component = corpus.posts[q].component_id;
      auto grade = [&](DocId d) {
        if (corpus.posts[d].scenario_id == scenario) return 2;
        if (corpus.posts[d].component_id == component) return 1;
        return 0;
      };
      // Ideal grade multiset over the whole corpus (minus the query).
      std::vector<int> ideal;
      for (DocId d = 0; d < docs.size(); ++d) {
        if (d != q) ideal.push_back(grade(d));
      }
      auto related = method->find_related(q, 5);
      std::vector<DocId> ids;
      size_t hits = 0;
      for (const ScoredDoc& sd : related) {
        ids.push_back(sd.doc);
        if (grade(sd.doc) == 2) ++hits;
      }
      prec_total += related.empty()
                        ? 0.0
                        : static_cast<double>(hits) / related.size();
      ndcg_total += ndcg(ids, grade, std::move(ideal));
      ++queries;
    }
    t.add_row({method_name(kind),
               str_format("%.3f", prec_total / queries),
               str_format("%.3f", ndcg_total / queries)});
  }
  std::printf("== Graded relevance (companion to Table 4; grade 2 = same"
              " problem, 1 = same component) ==\n\n");
  t.print(std::cout);
  std::printf("\n(Under graded relevance, same-component matches — worthless"
              " under the paper's binary judgment — earn partial credit,"
              " which favors whole-post matching even more strongly; the"
              " paper's binary choice is the stricter test.)\n\n");
}

// --------------------------- Part 2: adversarial CQA quality gate --------

/// Calibrated meanPrec@5 floor per profile. The floors sit well below
/// the scores a healthy pipeline produces (see the table the gate
/// prints) so the gate trips on real retrieval regressions, not on
/// noise; they are NOT aspirational targets.
double floor_for(const std::string& profile) {
  // Calibration (scale 1.0, the default): observed 0.030 / 0.400 / 0.150.
  if (profile == "near_duplicates") return 0.02;   // max 0.2 (1 relevant)
  if (profile == "bursty_hot_topic") return 0.28;
  if (profile == "cross_domain_confounders") return 0.10;
  return 0.0;
}

struct GateRow {
  std::string profile;
  size_t posts = 0;
  size_t queries = 0;
  double mean_prec5 = 0.0;
  double mean_ndcg5 = 0.0;
  double max_mean_prec5 = 0.0;
  double floor = 0.0;
  bool pass = false;
};

GateRow run_profile(const AdversarialCorpus& adversarial) {
  const SyntheticCorpus& corpus = adversarial.corpus;
  // Offline build over the prefix; the rest arrives as streaming ingests
  // in corpus order (the bursty profile's hot threads land here).
  std::vector<Document> offline;
  offline.reserve(adversarial.offline_posts);
  for (size_t i = 0; i < adversarial.offline_posts; ++i) {
    offline.push_back(
        Document::analyze(static_cast<DocId>(i), corpus.posts[i].text));
  }
  RelatedPostPipeline pipeline =
      RelatedPostPipeline::build(std::move(offline));
  for (size_t i = adversarial.offline_posts; i < corpus.posts.size(); ++i) {
    pipeline.add_post(corpus.posts[i].text);
  }

  std::vector<double> precisions;
  double ndcg_total = 0.0;
  for (DocId q : adversarial.queries) {
    int scenario = corpus.posts[q].scenario_id;
    int component = corpus.posts[q].component_id;
    auto grade = [&](DocId d) {
      if (d == q) return 0;
      if (corpus.posts[d].scenario_id == scenario) return 2;
      if (corpus.posts[d].component_id == component) return 1;
      return 0;
    };
    std::vector<DocId> ids;
    for (const ScoredDoc& sd : pipeline.find_related(q, 5)) ids.push_back(sd.doc);
    precisions.push_back(
        list_precision(ids, [&](DocId d) { return grade(d) == 2; }));
    std::vector<int> ideal;
    ideal.reserve(corpus.posts.size());
    for (DocId d = 0; d < corpus.posts.size(); ++d) {
      if (d != q) ideal.push_back(grade(d));
    }
    ndcg_total += ndcg(ids, grade, std::move(ideal));
  }

  GateRow row;
  row.profile = adversarial.name;
  row.posts = corpus.posts.size();
  row.queries = adversarial.queries.size();
  row.mean_prec5 = summarize_precision(precisions).mean;
  row.mean_ndcg5 = adversarial.queries.empty()
                       ? 0.0
                       : ndcg_total /
                             static_cast<double>(adversarial.queries.size());
  row.max_mean_prec5 = adversarial.max_mean_prec5;
  row.floor = floor_for(adversarial.name);
  row.pass = row.mean_prec5 >= row.floor;
  return row;
}

int adversarial_gate(size_t num_posts) {
  std::vector<GateRow> rows;
  for (const AdversarialCorpus& profile :
       all_adversarial_profiles(num_posts)) {
    rows.push_back(run_profile(profile));
  }

  std::printf("== Adversarial CQA gate (SemEval-2016 Task 3 stress axes,"
              " top-5) ==\n");
  TablePrinter t({"profile", "posts", "queries", "meanPrec@5", "nDCG@5",
                  "max", "floor", "gate"});
  for (const GateRow& row : rows) {
    t.add_row({row.profile, str_format("%zu", row.posts),
               str_format("%zu", row.queries),
               str_format("%.3f", row.mean_prec5),
               str_format("%.3f", row.mean_ndcg5),
               str_format("%.3f", row.max_mean_prec5),
               str_format("%.3f", row.floor), row.pass ? "pass" : "FAIL"});
  }
  t.print(std::cout);

  bench::BenchJson json("adversarial_eval");
  json.array("profiles", [&] {
    for (const GateRow& row : rows) {
      json.element([&] {
        json.put("profile", row.profile);
        json.put("posts", row.posts);
        json.put("queries", row.queries);
        json.put("mean_prec5", row.mean_prec5);
        json.put("mean_ndcg5", row.mean_ndcg5);
        json.put("max_mean_prec5", row.max_mean_prec5);
        json.put("floor", row.floor);
        json.put("pass", row.pass);
      });
    }
  });
  json.write();

  bool all_pass = true;
  for (const GateRow& row : rows) {
    if (!row.pass) {
      all_pass = false;
      std::fprintf(stderr,
                   "GATE FAILED: profile %s meanPrec@5 %.3f below floor"
                   " %.3f (max achievable %.3f)\n",
                   row.profile.c_str(), row.mean_prec5, row.floor,
                   row.max_mean_prec5);
    }
  }
  if (!all_pass) return 1;
  std::printf("GATE PASSED\n");
  return 0;
}

int run() {
  graded_table();
  return adversarial_gate(static_cast<size_t>(240 * bench::bench_scale()));
}

}  // namespace
}  // namespace ibseg

int main() { return ibseg::run(); }
