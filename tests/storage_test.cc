// Unit tests for src/storage: corpus persistence and the in-memory
// pipeline snapshot (the v2 file format is covered by persistence_test).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "cluster/intention_clusters.h"
#include "datagen/post_generator.h"
#include "index/intention_matcher.h"
#include "seg/segmenter.h"
#include "storage/corpus_io.h"
#include "storage/format_util.h"
#include "storage/snapshot.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

SyntheticCorpus sample_corpus() {
  GeneratorOptions gen;
  gen.num_posts = 30;
  gen.posts_per_scenario = 3;
  gen.seed = 12;
  return generate_corpus(gen);
}

// ------------------------------------------------------------- escaping ----

TEST(CorpusIo, EscapeRoundTrip) {
  std::string nasty = "line one\nline\\two \\n literal";
  EXPECT_EQ(unescape_text(escape_text(nasty)), nasty);
  EXPECT_EQ(escape_text("plain"), "plain");
  EXPECT_EQ(escape_text("a\nb"), "a\\nb");
}

TEST(CorpusIo, EscapesCarriageReturn) {
  // A raw '\r' in a stored text would be silently eaten by the
  // CRLF-tolerant loader; the writer must escape it.
  EXPECT_EQ(escape_text("a\rb"), "a\\rb");
  EXPECT_EQ(escape_text("crlf\r\n"), "crlf\\r\\n");
  std::string s = "mixed\rline\nend\r";
  std::string escaped = escape_text(s);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(unescape_text(escaped), s);
}

TEST(CorpusIo, UnescapeRejectsDanglingBackslash) {
  EXPECT_FALSE(unescape_text("truncated mid-escape\\").has_value());
  EXPECT_FALSE(unescape_text("\\").has_value());
  EXPECT_FALSE(unescape_text("unknown escape \\t").has_value());
  // Well-formed inputs still pass.
  EXPECT_TRUE(unescape_text("trailing double \\\\").has_value());
  EXPECT_TRUE(unescape_text("").has_value());
}

TEST(CorpusIo, EscapeRoundTripRandomBytes) {
  // Property test: escape/unescape is a bijection on arbitrary byte
  // strings (including NULs, high bytes, '\r', '\n' and backslash runs),
  // and the escaped form never contains a line break.
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<int> len_dist(0, 64);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  // Bias toward the interesting bytes so runs of them are common.
  const char special[] = {'\\', '\n', '\r', 'n', 'r', '\0'};
  std::uniform_int_distribution<int> special_dist(0, 5);
  std::bernoulli_distribution pick_special(0.4);
  for (int trial = 0; trial < 500; ++trial) {
    std::string s;
    int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      s.push_back(pick_special(rng)
                      ? special[special_dist(rng)]
                      : static_cast<char>(byte_dist(rng)));
    }
    std::string escaped = escape_text(s);
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << trial;
    EXPECT_EQ(escaped.find('\r'), std::string::npos) << trial;
    auto back = unescape_text(escaped);
    ASSERT_TRUE(back.has_value()) << trial;
    EXPECT_EQ(*back, s) << trial;
  }
}

// ------------------------------------------------------- format helpers ----

TEST(FormatUtil, ReadLineStripsCr) {
  std::istringstream is("plain\ncrlf\r\nonly-cr-kept\rx\nlast");
  std::string line;
  ASSERT_TRUE(read_line(is, &line));
  EXPECT_EQ(line, "plain");
  ASSERT_TRUE(read_line(is, &line));
  EXPECT_EQ(line, "crlf");
  ASSERT_TRUE(read_line(is, &line));
  EXPECT_EQ(line, "only-cr-kept\rx");  // interior \r is data, not a break
  ASSERT_TRUE(read_line(is, &line));
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(read_line(is, &line));
}

TEST(FormatUtil, ParseListStrict) {
  std::vector<int> out;
  EXPECT_TRUE(parse_list(std::string("labels 0 1 2"), "labels", &out));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  // Trailing whitespace is fine; trailing garbage is not.
  EXPECT_TRUE(parse_list(std::string("labels 0 1 "), "labels", &out));
  EXPECT_FALSE(parse_list(std::string("labels 0 1 x"), "labels", &out));
  EXPECT_FALSE(parse_list(std::string("labels 0 1.5"), "labels", &out));
  EXPECT_FALSE(parse_list(std::string("wrong 0 1"), "labels", &out));
  // Empty list parses (consistency checks reject it later if wrong).
  EXPECT_TRUE(parse_list(std::string("labels"), "labels", &out));
  EXPECT_TRUE(out.empty());
}

TEST(FormatUtil, Crc32KnownVector) {
  // The classic check value for the IEEE reflected polynomial.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(FormatUtil, AtomicWriteKeepsPreviousFileOnFailure) {
  const std::string dir = fresh_temp_dir("atomic_write");
  std::string path = dir + "/file";
  ASSERT_TRUE(atomic_write_file(path, [](std::ostream& os) {
    os << "old contents";
    return true;
  }));
  // A writer that reports failure must leave the old file untouched.
  ASSERT_FALSE(atomic_write_file(path, [](std::ostream& os) {
    os << "half-written new";
    return false;
  }));
  std::ifstream is(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "old contents");
  std::filesystem::remove_all(dir);
}

TEST(FormatUtil, AtomicWriteFailsOnMissingDirectory) {
  EXPECT_FALSE(atomic_write_file("/nonexistent-ibseg-dir/file",
                                 [](std::ostream& os) {
                                   os << "x";
                                   return true;
                                 }));
}

// --------------------------------------------------------- corpus io ----

TEST(CorpusIo, SaveLoadRoundTrip) {
  SyntheticCorpus corpus = sample_corpus();
  std::stringstream ss;
  ASSERT_TRUE(save_corpus(corpus, ss));
  auto loaded = load_corpus(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain, corpus.domain);
  EXPECT_EQ(loaded->num_scenarios, corpus.num_scenarios);
  ASSERT_EQ(loaded->posts.size(), corpus.posts.size());
  for (size_t i = 0; i < corpus.posts.size(); ++i) {
    EXPECT_EQ(loaded->posts[i].text, corpus.posts[i].text) << i;
    EXPECT_EQ(loaded->posts[i].scenario_id, corpus.posts[i].scenario_id);
    EXPECT_EQ(loaded->posts[i].component_id, corpus.posts[i].component_id);
    EXPECT_EQ(loaded->posts[i].contaminants, corpus.posts[i].contaminants);
    EXPECT_EQ(loaded->posts[i].true_segmentation,
              corpus.posts[i].true_segmentation);
    EXPECT_EQ(loaded->posts[i].segment_intents,
              corpus.posts[i].segment_intents);
  }
}

TEST(CorpusIo, RejectsGarbage) {
  std::stringstream empty("");
  EXPECT_FALSE(load_corpus(empty).has_value());
  std::stringstream wrong("NOT-A-CORPUS\n");
  EXPECT_FALSE(load_corpus(wrong).has_value());
  std::stringstream truncated("IBSEG-CORPUS v1\ndomain TechSupport\n");
  EXPECT_FALSE(load_corpus(truncated).has_value());
}

TEST(CorpusIo, RejectsCorruptedPostCount) {
  SyntheticCorpus corpus = sample_corpus();
  std::stringstream ss;
  ASSERT_TRUE(save_corpus(corpus, ss));
  std::string data = ss.str();
  // Claim one more post than present.
  size_t pos = data.find("posts 30");
  ASSERT_NE(pos, std::string::npos);
  data.replace(pos, 8, "posts 31");
  std::stringstream corrupted(data);
  EXPECT_FALSE(load_corpus(corrupted).has_value());
}

TEST(CorpusIo, LoadPlainPosts) {
  std::stringstream ss("first post\n\n  second post  \n");
  auto posts = load_plain_posts(ss);
  ASSERT_EQ(posts.size(), 2u);
  EXPECT_EQ(posts[0], "first post");
  EXPECT_EQ(posts[1], "second post");
}


// Round-trip across every domain (TEST_P).
class CorpusIoDomains
    : public ::testing::TestWithParam<ForumDomain> {};

TEST_P(CorpusIoDomains, RoundTrip) {
  GeneratorOptions gen;
  gen.domain = GetParam();
  gen.num_posts = 20;
  gen.seed = 5;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::stringstream ss;
  ASSERT_TRUE(save_corpus(corpus, ss));
  auto loaded = load_corpus(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain, corpus.domain);
  ASSERT_EQ(loaded->posts.size(), corpus.posts.size());
  for (size_t i = 0; i < corpus.posts.size(); ++i) {
    EXPECT_EQ(loaded->posts[i].text, corpus.posts[i].text);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, CorpusIoDomains,
                         ::testing::Values(ForumDomain::kTechSupport,
                                           ForumDomain::kTravel,
                                           ForumDomain::kProgramming,
                                           ForumDomain::kHealth));

// ------------------------------------------------------------ snapshot ----

struct Built {
  std::vector<Document> docs;
  std::vector<Segmentation> segs;
  IntentionClustering clustering;
};

Built build_pipeline_state() {
  Built b;
  b.docs = analyze_corpus(sample_corpus());
  Segmenter segmenter = Segmenter::cm_tiling();
  Vocabulary vocab;
  b.segs.resize(b.docs.size());
  for (size_t d = 0; d < b.docs.size(); ++d) {
    b.segs[d] = segmenter.segment(b.docs[d], vocab);
  }
  b.clustering = IntentionClustering::build(b.docs, b.segs);
  return b;
}

TEST(Snapshot, CapturesConsistentState) {
  Built b = build_pipeline_state();
  PipelineSnapshot snap = make_snapshot(b.segs, b.clustering);
  EXPECT_TRUE(snap.is_consistent());
  EXPECT_EQ(snap.num_clusters, b.clustering.num_clusters());
  EXPECT_EQ(snap.segmentations.size(), b.docs.size());
}

TEST(Snapshot, RestoreReproducesClustering) {
  Built b = build_pipeline_state();
  PipelineSnapshot snap = make_snapshot(b.segs, b.clustering);
  IntentionClustering restored = restore_clustering(b.docs, snap);
  EXPECT_EQ(restored.num_clusters(), b.clustering.num_clusters());
  ASSERT_EQ(restored.segments().size(), b.clustering.segments().size());
  // Same refined segment table (doc, cluster, ranges).
  for (size_t i = 0; i < restored.segments().size(); ++i) {
    EXPECT_EQ(restored.segments()[i].doc, b.clustering.segments()[i].doc);
    EXPECT_EQ(restored.segments()[i].cluster,
              b.clustering.segments()[i].cluster);
    EXPECT_EQ(restored.segments()[i].ranges,
              b.clustering.segments()[i].ranges);
  }
}

TEST(Snapshot, RestoredMatcherAnswersIdentically) {
  Built b = build_pipeline_state();
  PipelineSnapshot snap = make_snapshot(b.segs, b.clustering);
  IntentionClustering restored = restore_clustering(b.docs, snap);
  Vocabulary v1;
  Vocabulary v2;
  auto original = IntentionMatcher::build(b.docs, b.clustering, v1);
  auto reloaded = IntentionMatcher::build(b.docs, restored, v2);
  for (DocId q = 0; q < b.docs.size(); q += 5) {
    auto a = original.find_related(q, 5);
    auto c = reloaded.find_related(q, 5);
    ASSERT_EQ(a.size(), c.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, c[i].doc);
      EXPECT_NEAR(a[i].score, c[i].score, 1e-9);
    }
  }
}

TEST(Snapshot, RejectsInconsistentInput) {
  PipelineSnapshot bad;
  bad.num_clusters = 2;
  Segmentation s;
  s.num_units = 3;
  s.borders = {1};
  bad.segmentations.push_back(s);
  bad.segment_labels = {0, 5};
  EXPECT_FALSE(bad.is_consistent());  // label 5 out of range
  bad.segment_labels = {0};
  EXPECT_FALSE(bad.is_consistent());  // one label for two segments
  bad.segment_labels = {0, 1};
  EXPECT_TRUE(bad.is_consistent());
}

// ------------------------------------------------- CRLF / truncation ----

/// Rewrites every LF line ending as CRLF — what a Windows checkout or a
/// text-mode transfer does to these files.
std::string to_crlf(const std::string& data) {
  std::string out;
  out.reserve(data.size());
  for (char c : data) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(CorpusIo, LoadsCrlfFiles) {
  SyntheticCorpus corpus = sample_corpus();
  std::stringstream ss;
  ASSERT_TRUE(save_corpus(corpus, ss));
  std::stringstream crlf(to_crlf(ss.str()));
  auto loaded = load_corpus(crlf);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->posts.size(), corpus.posts.size());
  for (size_t i = 0; i < corpus.posts.size(); ++i) {
    EXPECT_EQ(loaded->posts[i].text, corpus.posts[i].text) << i;
    EXPECT_EQ(loaded->posts[i].true_segmentation,
              corpus.posts[i].true_segmentation);
  }
}

TEST(CorpusIo, LoadPlainPostsCrlf) {
  std::stringstream ss("first post\r\n\r\n  second post  \r\n");
  auto posts = load_plain_posts(ss);
  ASSERT_EQ(posts.size(), 2u);
  EXPECT_EQ(posts[0], "first post");
  EXPECT_EQ(posts[1], "second post");
}

TEST(CorpusIo, TruncationPrefixesAreRejected) {
  GeneratorOptions gen;
  gen.num_posts = 4;
  gen.seed = 7;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::stringstream ss;
  ASSERT_TRUE(save_corpus(corpus, ss));
  const std::string data = ss.str();
  // The file ends with the last post's "text <escaped>" line. Cutting
  // inside that free-form payload just yields a shorter (still valid)
  // text — the v1 text format's inherent detection limit, which snapshot
  // v2's CRC framing exists to close. Every cut point up to and including
  // the truncated keyword "text" itself must be rejected.
  size_t last_text = data.rfind("\ntext ");
  ASSERT_NE(last_text, std::string::npos);
  for (size_t len = 0; len <= last_text + 5; ++len) {
    std::stringstream prefix(data.substr(0, len));
    EXPECT_FALSE(load_corpus(prefix).has_value()) << "prefix len " << len;
  }
  std::stringstream full(data);
  EXPECT_TRUE(load_corpus(full).has_value());
}

}  // namespace
}  // namespace ibseg
