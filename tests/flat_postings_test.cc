// Tests for the sealed flat postings serving form (index/flat_postings.h):
//
//  * run layout — random postings lists seal into a tf = 1 unit-id run and
//    an other-tf (unit, tf) run per term that, merged by unit, read back
//    exactly the sealed list (tf compared as bit patterns), and a golden
//    case pins offsets, counts and the byte footprint;
//  * seal/rebuild — finalize() after an ingest re-seals runs that match a
//    from-scratch index built over the same units, entry for entry.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "index/flat_postings.h"
#include "index/inverted_index.h"
#include "text/term_vector.h"

namespace ibseg {
namespace {

std::vector<Posting> random_postings(std::mt19937& rng) {
  std::uniform_int_distribution<int> len_dist(1, 40);
  std::uniform_int_distribution<uint32_t> gap_dist(1, 1u << 20);
  std::uniform_int_distribution<int> kind_dist(0, 7);
  std::uniform_real_distribution<double> frac_dist(1e-9, 1e9);
  int len = len_dist(rng);
  std::vector<Posting> postings;
  uint64_t unit = 0;
  for (int i = 0; i < len; ++i) {
    unit += gap_dist(rng);
    if (unit > 0xffffffffull) break;
    double tf = 0.0;
    switch (kind_dist(rng)) {
      case 0:
        tf = static_cast<double>(2 + (rng() % 100));  // small integral
        break;
      case 1:
        tf = 1.8446744073709552e19;  // 2^64
        break;
      case 2:
        tf = frac_dist(rng);  // almost surely non-integral
        break;
      case 3:
        tf = 0x1.5p-1040;  // subnormal
        break;
      case 4:
        tf = std::nextafter(1.0, 2.0);  // one ulp away from the tf = 1 run
        break;
      default:
        tf = 1.0;  // the common posting
        break;
    }
    postings.push_back(Posting{static_cast<uint32_t>(unit), tf});
  }
  return postings;
}

// One seal over every list of `term_postings` (ascending TermId order).
FlatPostings seal_lists(
    const std::vector<std::pair<TermId, const std::vector<Posting>*>>&
        term_postings) {
  std::vector<TermPosting> added;
  for (const auto& [term, list] : term_postings) {
    for (const Posting& p : *list) {
      added.push_back(TermPosting{term, p.unit, p.tf});
    }
  }
  return FlatPostings::seal(FlatPostings(), added);
}

// `runs` merged back by unit: the tf = 1 run's units with tf 1.0, the
// other run's (unit, tf) as stored.
std::vector<Posting> merged(const TermRuns& runs) {
  std::vector<Posting> out;
  size_t i = 0;
  size_t j = 0;
  while (i < runs.ones.size() || j < runs.tfs.size()) {
    if (j == runs.tfs.size() ||
        (i < runs.ones.size() && runs.ones[i] < runs.tfs[j].unit)) {
      out.push_back(Posting{runs.ones[i++], 1.0});
    } else {
      out.push_back(runs.tfs[j++]);
    }
  }
  return out;
}

// Every term of a multi-term seal reads back exactly its own list: tf = 1
// postings (and only they) in the unit-id run, every other tf bit for bit
// in the (unit, tf) run, both in ascending unit order.
TEST(FlatPostingsRuns, RandomListsScanBackBitExactly) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::vector<Posting>> lists;
    std::vector<std::pair<TermId, const std::vector<Posting>*>> terms;
    const int num_terms = 1 + static_cast<int>(rng() % 5);
    lists.reserve(static_cast<size_t>(num_terms));
    for (int t = 0; t < num_terms; ++t) {
      lists.push_back(random_postings(rng));
      terms.emplace_back(static_cast<TermId>(3 * t + 1), &lists.back());
    }
    FlatPostings flat = seal_lists(terms);
    ASSERT_EQ(flat.num_terms(), lists.size());
    for (const auto& [term, list] : terms) {
      const FlatTermMeta* meta = flat.term_meta(term);
      ASSERT_NE(meta, nullptr) << "iter " << iter;
      EXPECT_EQ(meta->df, list->size());
      const TermRuns runs = flat.runs(*meta);
      for (uint32_t i = 1; i < runs.ones.size(); ++i) {
        EXPECT_LT(runs.ones[i - 1], runs.ones[i]) << "iter " << iter;
      }
      for (const Posting& p : runs.tfs) {
        EXPECT_NE(p.tf, 1.0) << "iter " << iter;
      }
      const std::vector<Posting> got = merged(runs);
      ASSERT_EQ(got.size(), list->size()) << "iter " << iter;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].unit, (*list)[i].unit) << "iter " << iter;
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].tf),
                  std::bit_cast<uint64_t>((*list)[i].tf))
            << "iter " << iter << " posting " << i;
      }
    }
    EXPECT_EQ(flat.term_meta(0), nullptr);  // between the sealed terms
    EXPECT_TRUE(flat.runs(TermId{0}).ones.empty());
    EXPECT_TRUE(flat.runs(TermId{0}).tfs.empty());
  }
}

TEST(FlatPostingsRuns, GoldenLayout) {
  const std::vector<Posting> a{{2, 1.0}, {5, 3.0}, {9, 1.0}};
  const std::vector<Posting> b{{0, 2.5}, {4, 1.0}};
  const std::vector<Posting> none;
  FlatPostings flat = seal_lists({{7, &a}, {8, &none}, {12, &b}});
  ASSERT_EQ(flat.num_terms(), 2u);  // an empty list seals nothing

  const FlatTermMeta* ma = flat.term_meta(7);
  ASSERT_NE(ma, nullptr);
  EXPECT_EQ(ma->df, 3u);
  EXPECT_EQ(ma->ones, 2u);
  EXPECT_EQ(ma->ones_offset, 0u);
  EXPECT_EQ(ma->tfs_offset, 0u);
  const FlatTermMeta* mb = flat.term_meta(12);
  ASSERT_NE(mb, nullptr);
  EXPECT_EQ(mb->df, 2u);
  EXPECT_EQ(mb->ones, 1u);
  EXPECT_EQ(mb->ones_offset, 2u);
  EXPECT_EQ(mb->tfs_offset, 1u);
  EXPECT_EQ(flat.term_meta(8), nullptr);

  const TermRuns ra = flat.runs(TermId{7});
  EXPECT_EQ(std::vector<uint32_t>(ra.ones.begin(), ra.ones.end()),
            (std::vector<uint32_t>{2, 9}));
  ASSERT_EQ(ra.tfs.size(), 1u);
  EXPECT_EQ(ra.tfs[0].unit, 5u);
  EXPECT_EQ(ra.tfs[0].tf, 3.0);
  const TermRuns rb = flat.runs(TermId{12});
  EXPECT_EQ(std::vector<uint32_t>(rb.ones.begin(), rb.ones.end()),
            (std::vector<uint32_t>{4}));
  ASSERT_EQ(rb.tfs.size(), 1u);
  EXPECT_EQ(rb.tfs[0].unit, 0u);
  EXPECT_EQ(rb.tfs[0].tf, 2.5);

  // Three unit ids, two (unit, tf) pairs, two metadata entries.
  EXPECT_EQ(flat.total_bytes(),
            3 * sizeof(uint32_t) + 2 * sizeof(Posting) +
                2 * (sizeof(TermId) + sizeof(FlatTermMeta)));
}

// --- Seal / rebuild ----------------------------------------------------

TermVector make_unit(std::mt19937& rng, int vocab_size) {
  std::uniform_int_distribution<int> nterms_dist(1, 8);
  std::uniform_int_distribution<TermId> term_dist(
      0, static_cast<TermId>(vocab_size - 1));
  std::uniform_int_distribution<int> tf_dist(1, 9);
  TermVector v;
  int nterms = nterms_dist(rng);
  for (int t = 0; t < nterms; ++t) {
    v.add(term_dist(rng), static_cast<double>(tf_dist(rng)));
  }
  return v;
}

TEST(FlatPostingsSeal, IngestAfterFinalizeResealsIdenticalToFreshBuild) {
  std::mt19937 rng(4242);
  std::vector<TermVector> units;
  for (int u = 0; u < 30; ++u) units.push_back(make_unit(rng, 20));

  // Incremental: 20 units, finalize, 10 more, finalize again.
  InvertedIndex incremental;
  for (int u = 0; u < 20; ++u) incremental.add_unit(units[u]);
  incremental.finalize();
  size_t sealed_once = incremental.flat().total_bytes();
  for (int u = 20; u < 30; ++u) incremental.add_unit(units[u]);
  incremental.finalize();

  // Fresh: all 30 in one pass.
  InvertedIndex fresh;
  for (const TermVector& v : units) fresh.add_unit(v);
  fresh.finalize();

  ASSERT_EQ(incremental.flat().num_terms(), fresh.flat().num_terms());
  EXPECT_EQ(incremental.flat().total_bytes(), fresh.flat().total_bytes());
  EXPECT_GT(incremental.flat().total_bytes(), sealed_once);
  size_t ones = 0;
  for (TermId term = 0; term < 20; ++term) {
    const FlatTermMeta* mi = incremental.flat().term_meta(term);
    const FlatTermMeta* mf = fresh.flat().term_meta(term);
    ASSERT_EQ(mi == nullptr, mf == nullptr);
    if (mi == nullptr) continue;
    EXPECT_EQ(mi->df, mf->df);
    EXPECT_EQ(mi->ones, mf->ones);
    const TermRuns ri = incremental.flat().runs(*mi);
    const TermRuns rf = fresh.flat().runs(*mf);
    EXPECT_TRUE(std::equal(ri.ones.begin(), ri.ones.end(), rf.ones.begin(),
                           rf.ones.end()))
        << "term " << term;
    const std::vector<Posting> gi = merged(ri);
    const std::vector<Posting> gf = merged(rf);
    ASSERT_EQ(gi.size(), gf.size()) << "term " << term;
    for (size_t i = 0; i < gi.size(); ++i) {
      EXPECT_EQ(gi[i].unit, gf[i].unit) << "term " << term;
      EXPECT_EQ(gi[i].tf, gf[i].tf) << "term " << term;
    }
    ones += mi->ones;
  }
  EXPECT_GT(ones, 0u);  // the tf = 1 run must have been exercised
}

}  // namespace
}  // namespace ibseg
