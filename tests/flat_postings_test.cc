// Tests for the sealed flat postings serving form (index/flat_postings.h):
//
//  * codec property tests — random postings lists round-trip bit-exactly
//    through append_posting/decode_run, every strict byte prefix of a
//    valid run is rejected, and golden byte sequences pin the wire format;
//  * decoder hardening — delta-0, unit overflow, tf-0, overlong varints,
//    trailing bytes and inflated df are all rejected, and an inflated df
//    cannot over-reserve (the allocation-bomb guard);
//  * seal/rebuild — finalize() after an ingest re-seals an arena that
//    matches a from-scratch index built over the same units, byte for
//    byte.

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "index/flat_postings.h"
#include "index/inverted_index.h"
#include "text/term_vector.h"

namespace ibseg {
namespace {

// Encodes a whole postings list the way seal() does.
std::vector<uint8_t> encode_run(const std::vector<Posting>& postings) {
  std::vector<uint8_t> out;
  uint32_t prev = 0;
  bool first = true;
  for (const Posting& p : postings) {
    FlatPostings::append_posting(&out, p.unit, p.tf, prev, first);
    prev = p.unit;
    first = false;
  }
  return out;
}

std::vector<Posting> random_postings(std::mt19937& rng) {
  std::uniform_int_distribution<int> len_dist(1, 40);
  std::uniform_int_distribution<uint32_t> gap_dist(1, 1u << 20);
  std::uniform_int_distribution<int> kind_dist(0, 4);
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
        tf = static_cast<double>(1 + (rng() % 100));  // small integral
        break;
      case 1:
        tf = 9.007199254740992e15;  // 2^53: integral, varint fast path
        break;
      case 2:
        tf = 1.8446744073709552e19;  // 2^64 > 2^62: raw-bits branch
        break;
      case 3:
        tf = frac_dist(rng);  // almost surely non-integral
        break;
      default:
        tf = 0x1.5p-1040;  // subnormal: raw-bits branch must be exact
        break;
    }
    postings.push_back(Posting{static_cast<uint32_t>(unit), tf});
  }
  return postings;
}

TEST(FlatPostingsCodec, RandomRunsRoundTripBitExactly) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<Posting> postings = random_postings(rng);
    std::vector<uint8_t> bytes = encode_run(postings);
    std::vector<Posting> decoded;
    FlatDecodeStats stats;
    ASSERT_TRUE(FlatPostings::decode_run(
        bytes.data(), bytes.size(), static_cast<uint32_t>(postings.size()),
        &decoded, &stats));
    ASSERT_EQ(decoded.size(), postings.size());
    for (size_t i = 0; i < postings.size(); ++i) {
      EXPECT_EQ(decoded[i].unit, postings[i].unit);
      // Bit-exact, not approximately equal: the pruning identity contract
      // needs decode(encode(tf)) == tf for every double.
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i].tf),
                std::bit_cast<uint64_t>(postings[i].tf))
          << "posting " << i << " tf " << postings[i].tf;
    }
    EXPECT_EQ(stats.postings, postings.size());
    EXPECT_EQ(stats.bytes, bytes.size());
  }
}

// The query path's Cursor (with its one-byte fast path) must decode a
// sealed run to exactly what the bounded decoder reads from the same bytes.
TEST(FlatPostingsCodec, SealedCursorRoundTripsBitExactly) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Posting> postings = random_postings(rng);
    if (iter % 2 == 0) {
      // Dense units: mostly one-byte deltas, as in a real cluster index.
      uint32_t unit = static_cast<uint32_t>(rng() % 300);
      for (Posting& p : postings) {
        p.unit = unit;
        unit += 1 + static_cast<uint32_t>(rng() % 200);
      }
    }
    FlatPostings flat = FlatPostings::seal({{TermId{5}, &postings}});
    FlatPostings::Cursor cur = flat.cursor(5);
    uint32_t unit = 0;
    double tf = 0.0;
    for (const Posting& want : postings) {
      ASSERT_TRUE(cur.next(&unit, &tf)) << "iter " << iter;
      EXPECT_EQ(unit, want.unit) << "iter " << iter;
      EXPECT_EQ(std::bit_cast<uint64_t>(tf), std::bit_cast<uint64_t>(want.tf))
          << "iter " << iter;
    }
    EXPECT_FALSE(cur.next(&unit, &tf)) << "iter " << iter;
    EXPECT_TRUE(cur.done());
  }
}

TEST(FlatPostingsCodec, EveryStrictPrefixIsRejected) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Posting> postings = random_postings(rng);
    std::vector<uint8_t> bytes = encode_run(postings);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<Posting> decoded;
      EXPECT_FALSE(FlatPostings::decode_run(
          bytes.data(), cut, static_cast<uint32_t>(postings.size()),
          &decoded))
          << "prefix of length " << cut << " of " << bytes.size()
          << " must not decode";
    }
  }
}

TEST(FlatPostingsCodec, GoldenEncodings) {
  // unit 5, tf 3 (first): varint(5), varint(3 << 1 | 1).
  std::vector<uint8_t> out;
  FlatPostings::append_posting(&out, 5, 3.0, 0, /*first=*/true);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x05, 0x07}));

  // unit 133 after 5: delta 128 = [0x80, 0x01]; tf 1 -> varint(3).
  out.clear();
  FlatPostings::append_posting(&out, 133, 1.0, 5, /*first=*/false);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x80, 0x01, 0x03}));

  // Non-integral tf 2.5: raw-bits escape varint(0) + LE bits of 2.5
  // (0x4004000000000000).
  out.clear();
  FlatPostings::append_posting(&out, 9, 2.5, 0, /*first=*/true);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
                                       0x00, 0x00, 0x04, 0x40}));

  // All three decode back.
  std::vector<Posting> list{{5, 3.0}, {133, 1.0}};
  std::vector<uint8_t> bytes = encode_run(list);
  EXPECT_EQ(bytes,
            (std::vector<uint8_t>{0x05, 0x07, 0x80, 0x01, 0x03}));
  std::vector<Posting> decoded;
  ASSERT_TRUE(FlatPostings::decode_run(bytes.data(), bytes.size(), 2,
                                       &decoded));
  EXPECT_EQ(decoded[1].unit, 133u);
  EXPECT_EQ(decoded[1].tf, 1.0);
}

TEST(FlatPostingsCodec, RejectsMalformedRuns) {
  std::vector<Posting> decoded;

  // Zero delta on a non-first posting (units must strictly ascend).
  std::vector<uint8_t> zero_delta{0x05, 0x03, 0x00, 0x03};
  EXPECT_FALSE(FlatPostings::decode_run(zero_delta.data(), zero_delta.size(),
                                        2, &decoded));

  // First unit id past 2^32 - 1.
  std::vector<uint8_t> big_unit;
  FlatPostings::append_varint(&big_unit, 0x100000000ull);
  big_unit.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(big_unit.data(), big_unit.size(), 1,
                                        &decoded));

  // Delta pushing the cumulative unit past 2^32 - 1.
  std::vector<uint8_t> overflow;
  FlatPostings::append_varint(&overflow, 0xffffffffull);
  overflow.push_back(0x03);
  FlatPostings::append_varint(&overflow, 1);
  overflow.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(overflow.data(), overflow.size(), 2,
                                        &decoded));

  // Integral tf 0 (encoded varint 1) never appears in a sealed run.
  std::vector<uint8_t> zero_tf{0x05, 0x01};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(zero_tf.data(), zero_tf.size(), 1,
                                        &decoded));

  // Raw-bits escape with fewer than 8 payload bytes.
  std::vector<uint8_t> short_raw{0x05, 0x00, 0x01, 0x02};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(short_raw.data(), short_raw.size(),
                                        1, &decoded));

  // Overlong varint: ten continuation-heavy bytes shifting data past bit
  // 63.
  std::vector<uint8_t> overlong(9, 0xff);
  overlong.push_back(0x7f);
  overlong.push_back(0x03);
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(overlong.data(), overlong.size(), 1,
                                        &decoded));

  // Trailing bytes after the df-th posting.
  std::vector<uint8_t> trailing{0x05, 0x07, 0xab};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(trailing.data(), trailing.size(), 1,
                                        &decoded));

  // df larger than the buffer could possibly hold.
  std::vector<uint8_t> tiny{0x05, 0x07};
  decoded.clear();
  EXPECT_FALSE(FlatPostings::decode_run(tiny.data(), tiny.size(), 1000000,
                                        &decoded));
}

TEST(FlatPostingsCodec, InflatedDfCannotOverReserve) {
  // A lying df of 2^32 - 1 against a 2-byte buffer must fail without
  // reserving gigabytes: the guard reserves from the byte budget
  // (size / 2 + 1 postings at most).
  std::vector<uint8_t> tiny{0x05, 0x07};
  std::vector<Posting> decoded;
  EXPECT_FALSE(FlatPostings::decode_run(tiny.data(), tiny.size(),
                                        0xffffffffu, &decoded));
  EXPECT_LE(decoded.capacity(), 16u);
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
  size_t sealed_once = incremental.flat().arena_bytes();
  for (int u = 20; u < 30; ++u) incremental.add_unit(units[u]);
  incremental.finalize();

  // Fresh: all 30 in one pass.
  InvertedIndex fresh;
  for (const TermVector& v : units) fresh.add_unit(v);
  fresh.finalize();

  ASSERT_EQ(incremental.flat().num_terms(), fresh.flat().num_terms());
  EXPECT_EQ(incremental.flat().arena_bytes(), fresh.flat().arena_bytes());
  EXPECT_GT(incremental.flat().arena_bytes(), sealed_once);
  for (TermId term = 0; term < 20; ++term) {
    EXPECT_EQ(incremental.flat().term_run_bytes(term),
              fresh.flat().term_run_bytes(term))
        << "term " << term;
    const FlatTermMeta* mi = incremental.flat().term_meta(term);
    const FlatTermMeta* mf = fresh.flat().term_meta(term);
    ASSERT_EQ(mi == nullptr, mf == nullptr);
    if (mi == nullptr) continue;
    EXPECT_EQ(mi->df, mf->df);
  }
  EXPECT_EQ(incremental.flat().total_bytes(), fresh.flat().total_bytes());
}

}  // namespace
}  // namespace ibseg
