// Fuzz target: the sealed flat postings (index/flat_postings.h) and the
// dense scoring kernel that reads them (score_units_dense, index/scoring.h).
// The input bytes describe arbitrary postings — small integral tf, tf
// exactly 1, and raw IEEE-754 bit patterns (subnormals, huge values,
// infinities, NaNs) — which are indexed, finalized and sealed. Contract
// under ANY input: never crash; each term's two sealed runs read back, in
// unit order, exactly the postings of the parsed bags (tf compared as bit
// patterns, tf = 1 postings and only they in the unit-id run); sealing
// part of the units, then the rest one unit and one seal at a time (the
// publish path), lays out the very bytes one seal over all units does;
// and for every scoring function, local statistics (a board holding
// exactly the index's units) and cross-shard ones, top-n and threshold
// mode, the kernel's answer equals the map-based reference's bit for bit.
//
// Input layout, repeated until the bytes run out: a control byte (low 4
// bits = term id, top bit = the unit ends after this posting) and a tf
// byte s: s < 0x80 -> tf 1, s < 0xc0 -> tf (s & 0x3f) + 2, else the next
// 8 bytes are the tf's little-endian bit pattern. The last byte also picks
// how many units the first of the incremental seals covers.

#include "fuzz_driver.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "index/collection_stats.h"
#include "index/flat_postings.h"
#include "index/intention_matcher.h"
#include "index/inverted_index.h"
#include "index/scoring.h"

namespace {

constexpr ibseg::TermId kTerms = 16;
constexpr size_t kMaxUnits = 200;

std::vector<ibseg::TermVector> parse_units(const uint8_t* data,
                                           size_t size) {
  std::vector<ibseg::TermVector> units(1);
  size_t pos = 0;
  while (pos + 2 <= size && units.size() <= kMaxUnits) {
    const uint8_t control = data[pos];
    const uint8_t s = data[pos + 1];
    pos += 2;
    double tf = 1.0;
    if (s >= 0xc0) {
      if (size - pos < 8) break;
      uint64_t raw = 0;
      for (int i = 0; i < 8; ++i) {
        raw |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
      }
      pos += 8;
      tf = std::bit_cast<double>(raw);
    } else if (s >= 0x80) {
      tf = static_cast<double>(s & 0x3f) + 2.0;
    }
    const ibseg::TermId term = control & (kTerms - 1);
    ibseg::TermVector& unit = units.back();
    const bool present =
        std::any_of(unit.entries().begin(), unit.entries().end(),
                    [&](const auto& e) { return e.first == term; });
    if (!present) unit.add(term, tf);
    if ((control & 0x80) != 0) units.emplace_back();
  }
  return units;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Aborts unless `a` and `b` hold the same terms with the same metadata and
// the same run bytes.
void require_same_bytes(const ibseg::FlatPostings& a,
                        const ibseg::FlatPostings& b) {
  if (a.num_terms() != b.num_terms() || a.total_bytes() != b.total_bytes()) {
    std::abort();
  }
  for (ibseg::TermId term = 0; term < kTerms; ++term) {
    const ibseg::FlatTermMeta* ma = a.term_meta(term);
    const ibseg::FlatTermMeta* mb = b.term_meta(term);
    if ((ma == nullptr) != (mb == nullptr)) std::abort();
    if (ma == nullptr) continue;
    if (std::memcmp(ma, mb, sizeof(ibseg::FlatTermMeta)) != 0) std::abort();
    const ibseg::TermRuns ra = a.runs(*ma);
    const ibseg::TermRuns rb = b.runs(*mb);
    if (!std::equal(ra.ones.begin(), ra.ones.end(), rb.ones.begin())) {
      std::abort();
    }
    for (size_t i = 0; i < ra.tfs.size(); ++i) {
      if (ra.tfs[i].unit != rb.tfs[i].unit ||
          !same_bits(ra.tfs[i].tf, rb.tfs[i].tf)) {
        std::abort();
      }
    }
  }
}

// The matcher's reference selection: map-based scores, then exclude,
// threshold, (score desc, doc asc) order and the top-n cut.
std::vector<ibseg::ScoredUnit> reference_select(
    const ibseg::InvertedIndex& index, const ibseg::TermVector& query,
    const ibseg::ScoringOptions& options,
    const ibseg::ClusterCollectionStats& collection,
    const std::vector<uint32_t>& unit_doc, size_t n, double threshold) {
  std::vector<ibseg::ScoredUnit> hits =
      ibseg::score_units_counted(index, query, options, collection, nullptr);
  std::erase_if(hits, [&](const ibseg::ScoredUnit& h) {
    return threshold > 0.0 && h.score < threshold;
  });
  std::sort(hits.begin(), hits.end(),
            [&](const ibseg::ScoredUnit& a, const ibseg::ScoredUnit& b) {
              if (a.score != b.score) return a.score > b.score;
              return unit_doc[a.unit] < unit_doc[b.unit];
            });
  if (threshold <= 0.0 && hits.size() > n) hits.resize(n);
  return hits;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::vector<ibseg::TermVector> units = parse_units(data, size);
  const double floor = ibseg::MatcherOptions().min_norm_fraction;
  ibseg::InvertedIndex index;
  ibseg::GlobalIndexStats local_board(1, floor);
  ibseg::GlobalIndexStats board(1, floor);
  std::vector<uint32_t> unit_doc;
  // Every term's postings in unit order, straight from the bags.
  std::map<ibseg::TermId, std::vector<ibseg::Posting>> postings;
  for (const ibseg::TermVector& unit : units) {
    const auto id = static_cast<uint32_t>(unit_doc.size());
    for (const auto& [term, tf] : unit.entries()) {
      if (tf <= 0.0) continue;  // NaN tf is kept, as add_unit keeps it
      postings[term].push_back(ibseg::Posting{id, tf});
    }
    index.add_unit(unit);
    local_board.append(0, unit, /*refresh_now=*/false);
    board.append(0, unit, /*refresh_now=*/false);
    unit_doc.push_back(static_cast<uint32_t>(100000 - 7 * unit_doc.size()));
  }
  local_board.refresh(0);
  // The board also holds units of a second (absent) shard.
  board.append(0, units.front(), /*refresh_now=*/false);
  board.refresh(0);
  index.finalize();
  const ibseg::FlatPostings& flat = index.flat();

  // Publish path: a seal over the first `split` units, then one seal per
  // further unit, lays out the bytes of the one seal above.
  {
    const size_t split = size == 0 ? 0 : data[size - 1] % (units.size() + 1);
    ibseg::InvertedIndex incremental;
    for (size_t u = 0; u < split; ++u) incremental.add_unit(units[u]);
    incremental.finalize();
    for (size_t u = split; u < units.size(); ++u) {
      incremental.add_unit(units[u]);
      incremental.finalize();
    }
    require_same_bytes(incremental.flat(), flat);
  }

  // Scan: each term's runs, merged by unit, are its postings in the bags.
  for (ibseg::TermId term = 0; term < kTerms; ++term) {
    static const std::vector<ibseg::Posting> kNone;
    auto it = postings.find(term);
    const std::vector<ibseg::Posting>& want =
        it == postings.end() ? kNone : it->second;
    const ibseg::TermRuns runs = flat.runs(term);
    if (runs.ones.size() + runs.tfs.size() != want.size()) std::abort();
    size_t i = 0;
    size_t j = 0;
    for (const ibseg::Posting& p : want) {
      if (p.tf == 1.0) {
        if (i == runs.ones.size() || runs.ones[i++] != p.unit) std::abort();
      } else {
        if (j == runs.tfs.size()) std::abort();
        const ibseg::Posting& got = runs.tfs[j++];
        if (got.unit != p.unit || !same_bits(got.tf, p.tf)) std::abort();
      }
    }
  }

  // Score: the kernel equals the reference, bit for bit.
  const std::shared_ptr<const ibseg::ClusterCollectionStats> local =
      local_board.cluster(0);
  const std::shared_ptr<const ibseg::ClusterCollectionStats> global =
      board.cluster(0);
  const ibseg::TermVector* queries[] = {&units.front(),
                                        &units[units.size() / 2],
                                        &units.back()};
  for (ibseg::ScoringFunction fn :
       {ibseg::ScoringFunction::kPaperTfIdf, ibseg::ScoringFunction::kBm25,
        ibseg::ScoringFunction::kQueryLikelihood}) {
    ibseg::ScoringOptions options;
    options.function = fn;
    for (const ibseg::ClusterCollectionStats* stats :
         {local.get(), global.get()}) {
      for (const ibseg::TermVector* query : queries) {
        for (double threshold : {0.0, 1e-300}) {
          const std::vector<ibseg::ScoredUnit> want = reference_select(
              index, *query, options, *stats, unit_doc, 5, threshold);
          const std::vector<ibseg::ScoredUnit> got = ibseg::score_units_dense(
              index, *query, options, *stats, unit_doc,
              /*exclude_doc=*/0xffffffffu, 5, threshold);
          if (got.size() != want.size()) std::abort();
          for (size_t r = 0; r < got.size(); ++r) {
            if (got[r].unit != want[r].unit ||
                !same_bits(got[r].score, want[r].score)) {
              std::abort();
            }
          }
        }
      }
    }
  }
  return 0;
}

std::vector<std::string> fuzz_seed_inputs() {
  std::vector<std::string> seeds;
  // Mostly tf = 1 over shared terms, some small integral tf, units of one
  // to four postings: the shape of a real cluster index.
  std::string real;
  for (uint8_t u = 0; u < 40; ++u) {
    const int postings = 1 + u % 4;
    for (int p = 0; p < postings; ++p) {
      uint8_t control = static_cast<uint8_t>((u * 3 + p * 5) % kTerms);
      if (p == postings - 1) control |= 0x80;
      real.push_back(static_cast<char>(control));
      real.push_back(static_cast<char>((u + p) % 5 == 0 ? 0x81 : 0x10));
    }
  }
  seeds.push_back(real);
  // Raw tf bit patterns: 0.5, a subnormal, 2^64 and +infinity.
  std::string raw;
  for (double tf : {0.5, 0x1.5p-1040, 1.8446744073709552e19,
                    std::bit_cast<double>(0x7ff0000000000000ull)}) {
    raw.push_back('\x83');
    raw.push_back('\xc0');
    const uint64_t bits = std::bit_cast<uint64_t>(tf);
    for (int i = 0; i < 8; ++i) {
      raw.push_back(static_cast<char>(bits >> (8 * i)));
    }
    raw.push_back('\x83');
    raw.push_back('\x00');
  }
  seeds.push_back(raw);
  seeds.push_back(std::string());  // one empty unit
  return seeds;
}
