// Deterministic stress suite for the concurrent serving facade
// (core/sharded_serving.h). Seeded datagen corpora drive mixed
// reader/writer thread mixes, a barrier-synchronized "thundering herd"
// query burst, and an invariant checker asserting that every query
// observes a consistent snapshot: the corpus size and publication epoch
// move in lockstep, result ids only ever reference documents that were
// reserved for publication, and a batched ingest takes consecutive
// publication sequence numbers. Run under
// IBSEG_SANITIZE=thread (scripts/check_sanitizers.sh) these tests are the
// proof that the reader/writer layer is race-free, not accidentally so.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/recluster.h"
#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "storage/wal_codec.h"
#include "util/rng.h"
#include "util/sync.h"

namespace ibseg {
namespace {

// Sizes are chosen for a TSan-instrumented single-core runner: large
// enough that readers and writers genuinely overlap, small enough that the
// whole binary stays in the seconds range.
constexpr size_t kSeedPosts = 48;
constexpr uint64_t kSeedCorpusSeed = 4242;
constexpr uint64_t kIngestCorpusSeed = 777;

std::vector<Document> make_docs(size_t posts = kSeedPosts,
                                uint64_t seed = kSeedCorpusSeed) {
  GeneratorOptions gen;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return analyze_corpus(generate_corpus(gen));
}

/// A one-shard serving facade over the seeded corpus.
std::unique_ptr<ShardedServing> make_serving(size_t posts = kSeedPosts,
                                             ServingOptions options = {}) {
  return ShardedServing::create(make_docs(posts), {}, std::move(options));
}

std::vector<std::string> make_ingest_texts(size_t count,
                                           uint64_t seed = kIngestCorpusSeed) {
  GeneratorOptions gen;
  gen.num_posts = count;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  SyntheticCorpus corpus = generate_corpus(gen);
  std::vector<std::string> texts;
  texts.reserve(corpus.posts.size());
  for (const auto& post : corpus.posts) texts.push_back(post.text);
  return texts;
}

// Checks the per-query snapshot invariants and returns an explanation on
// violation (empty string = consistent). `seed_total` is the corpus size
// before any online ingest (epoch/num_docs are the summed per-shard
// values).
std::string check_snapshot_result(const ShardedServing::QueryResult& r,
                                  size_t seed_total, DocId seed_next_id,
                                  size_t total_ingests) {
  // A query must observe epoch and corpus size from the same publication
  // point: every published document bumps both by exactly one.
  if (r.num_docs != seed_total + r.epoch) {
    return "torn snapshot: num_docs " + std::to_string(r.num_docs) +
           " != seed " + std::to_string(seed_total) + " + epoch " +
           std::to_string(r.epoch);
  }
  std::set<DocId> seen;
  double prev_score = std::numeric_limits<double>::infinity();
  for (const ScoredDoc& sd : r.results) {
    // Result ids are either seed documents (< seed_next_id) or ids the
    // id-reservation counter could actually have handed out.
    if (sd.doc >= seed_next_id + static_cast<DocId>(total_ingests)) {
      return "result references unreserved id " + std::to_string(sd.doc);
    }
    if (!seen.insert(sd.doc).second) {
      return "duplicate result id " + std::to_string(sd.doc);
    }
    if (!(sd.score > 0.0) || !std::isfinite(sd.score)) {
      return "non-positive/non-finite score for id " + std::to_string(sd.doc);
    }
    if (sd.score > prev_score) {
      return "results not sorted by descending score";
    }
    prev_score = sd.score;
  }
  return "";
}

/// check_snapshot_result for a one-shard facade (seed corpus = shard 0's).
std::string check_snapshot(const ShardedServing& serving,
                           const ShardedServing::QueryResult& r,
                           DocId seed_next_id, size_t total_ingests) {
  return check_snapshot_result(r, serving.shard(0).seed_docs(), seed_next_id,
                               total_ingests);
}

// ----------------------------------------------------- serving basics ----

TEST(ServingFacade, MatchesWrappedPipelineWhenQuiet) {
  Oracle reference(make_docs());
  auto expected = reference.find_related(4, 5).results;
  Document external = Document::analyze(1u << 30, reference.docs()[0].text());
  auto expected_ext = reference.find_related_external(external, 5).results;

  auto built = make_serving();
  const ShardedServing& serving = *built;
  auto got = serving.find_related(4, 5);
  EXPECT_EQ(got.epoch, 0u);
  EXPECT_EQ(got.num_docs, serving.shard(0).seed_docs());
  ASSERT_EQ(got.results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.results[i].doc, expected[i].doc);
    EXPECT_DOUBLE_EQ(got.results[i].score, expected[i].score);
  }
  auto got_ext = serving.find_related_external(external, 5);
  ASSERT_EQ(got_ext.results.size(), expected_ext.size());
  for (size_t i = 0; i < expected_ext.size(); ++i) {
    EXPECT_EQ(got_ext.results[i].doc, expected_ext[i].doc);
    EXPECT_DOUBLE_EQ(got_ext.results[i].score, expected_ext[i].score);
  }
}

TEST(ServingFacade, SingleThreadedIngestMatchesPipelineSemantics) {
  auto built = make_serving(20);
  ShardedServing& serving = *built;
  std::vector<std::string> texts = make_ingest_texts(3);
  DocId first = serving.next_id();
  DocId a = serving.add_post(texts[0]).value();
  EXPECT_EQ(a, first);
  std::vector<DocId> ids = serving.add_posts({texts[1], texts[2]}).value();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], first + 1);
  EXPECT_EQ(ids[1], first + 2);
  EXPECT_EQ(serving.epoch(), 3u);
  EXPECT_EQ(serving.num_docs(), serving.shard(0).seed_docs() + 3);
  // The ingested posts answer queries.
  for (DocId id : {a, ids[0], ids[1]}) {
    auto r = serving.find_related(id, 5);
    EXPECT_EQ(r.num_docs, serving.shard(0).seed_docs() + r.epoch);
  }
}

// ------------------------------------------------- mixed reader/writer ----

TEST(ConcurrencyStress, MixedReadersAndWritersKeepInvariants) {
  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 3;
  constexpr size_t kIngestsPerWriter = 8;
  constexpr size_t kQueriesPerReader = 40;
  constexpr size_t kTotalIngests = kWriters * kIngestsPerWriter;

  auto built = make_serving();
  ShardedServing& serving = *built;
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kTotalIngests);

  // External query posts are analyzed before the threads start (Document
  // analysis is deterministic, so this keeps the workload seeded).
  std::vector<Document> externals;
  for (size_t i = 0; i < 4; ++i) {
    externals.push_back(Document::analyze(
        static_cast<DocId>((1u << 30) + i), texts[i]));
  }

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders);

  {
    ScopedThreads threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.spawn([&, w] {
        for (size_t i = 0; i < kIngestsPerWriter; ++i) {
          serving.add_post(texts[w * kIngestsPerWriter + i]);
        }
      });
    }
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(1000 + t);  // per-thread deterministic query schedule
        uint64_t last_epoch = 0;
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          ShardedServing::QueryResult r;
          if (q % 4 == 3) {
            r = serving.find_related_external(
                externals[q % externals.size()], 5);
          } else {
            DocId query = static_cast<DocId>(
                rng.next_below(static_cast<uint64_t>(kSeedPosts)));
            r = serving.find_related(query, 5);
          }
          std::string why =
              check_snapshot(serving, r, seed_next_id, kTotalIngests);
          if (why.empty() && r.epoch < last_epoch) {
            why = "epoch moved backwards within one reader";
          }
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
          last_epoch = r.epoch;
        }
      });
    }
  }  // joins all threads

  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  // Quiescent state: everything published, every ingested id queryable.
  EXPECT_EQ(serving.epoch(), kTotalIngests);
  EXPECT_EQ(serving.num_docs(), serving.shard(0).seed_docs() + kTotalIngests);
  EXPECT_EQ(serving.next_id(), seed_next_id + kTotalIngests);
  for (DocId id = seed_next_id; id < seed_next_id + kTotalIngests; ++id) {
    auto r = serving.find_related(id, 3);
    EXPECT_EQ(r.epoch, kTotalIngests);
    for (const ScoredDoc& sd : r.results) EXPECT_NE(sd.doc, id);
  }
}

// ---------------------------------------------------- thundering herd ----

TEST(ConcurrencyStress, ThunderingHerdAgreesWithoutWriters) {
  constexpr size_t kHerd = 8;
  auto built = make_serving();
  const ShardedServing& serving = *built;
  auto reference = serving.find_related(7, 5);

  CyclicBarrier barrier(kHerd);
  std::vector<ShardedServing::QueryResult> results(kHerd);
  {
    ScopedThreads threads;
    for (size_t t = 0; t < kHerd; ++t) {
      threads.spawn([&, t] {
        barrier.arrive_and_wait();  // all queries released at once
        results[t] = serving.find_related(7, 5);
      });
    }
  }
  // With no writer, every thread of the herd must see the identical
  // ranking — byte-for-byte agreement across concurrent shared-lock reads.
  for (size_t t = 0; t < kHerd; ++t) {
    ASSERT_EQ(results[t].results.size(), reference.results.size());
    EXPECT_EQ(results[t].epoch, 0u);
    for (size_t i = 0; i < reference.results.size(); ++i) {
      EXPECT_EQ(results[t].results[i].doc, reference.results[i].doc);
      EXPECT_DOUBLE_EQ(results[t].results[i].score,
                       reference.results[i].score);
    }
  }
}

TEST(ConcurrencyStress, ThunderingHerdStaysConsistentDuringIngest) {
  constexpr size_t kHerd = 6;
  constexpr size_t kRounds = 6;
  auto built = make_serving();
  ShardedServing& serving = *built;
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kRounds);

  // kHerd query threads + 1 writer thread rendezvous each round, then the
  // herd bursts while the writer publishes one more post.
  CyclicBarrier barrier(kHerd + 1);
  std::atomic<size_t> violations{0};
  {
    ScopedThreads threads;
    threads.spawn([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        barrier.arrive_and_wait();
        serving.add_post(texts[round]);
      }
    });
    for (size_t t = 0; t < kHerd; ++t) {
      threads.spawn([&, t] {
        uint64_t last_epoch = 0;
        for (size_t round = 0; round < kRounds; ++round) {
          barrier.arrive_and_wait();
          auto r = serving.find_related(
              static_cast<DocId>((t * 7 + round) % kSeedPosts), 5);
          if (!check_snapshot(serving, r, seed_next_id, kRounds).empty() ||
              r.epoch < last_epoch) {
            violations.fetch_add(1);
          }
          last_epoch = r.epoch;
        }
      });
    }
  }
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(serving.epoch(), kRounds);
}

// ------------------------------------------------------ batched ingest ----

// What ADD_POSTS promises (docs/PROTOCOL.md §4.5): the batch's posts take
// consecutive publication sequence numbers in request order — no
// concurrent add_post lands between them — and all of them are published
// by the time the call returns. (Queries may observe a prefix of the
// batch: each post publishes under its own shard lock.) The publication
// sequence is read back from ship_segment frames, the replication log.
TEST(ConcurrencyStress, BatchedIngestTakesConsecutiveSequenceNumbers) {
  constexpr size_t kBatch = 10;
  constexpr size_t kBatches = 3;
  constexpr size_t kSingles = 24;
  ServingOptions options;
  options.num_shards = 2;
  auto built = ShardedServing::create(make_docs(24), {}, options);
  ShardedServing& serving = *built;
  std::vector<std::string> texts = make_ingest_texts(kBatch * kBatches);
  std::vector<std::string> singles = make_ingest_texts(kSingles, 778);

  // Publication sequence -> document id, decoded from the shipped frames.
  auto published_ids = [&serving] {
    ShardedServing::ShipSegment seg = serving.ship_segment(
        0, serving.offline_generation(), 1u << 20, 1u << 30);
    std::vector<WalRecord> records;
    wal_scan_frames(seg.raw.data(), seg.raw.size(), &records);
    std::vector<DocId> ids;
    for (const WalRecord& rec : records) ids.push_back(rec.id);
    return ids;
  };

  std::atomic<bool> start{false};
  std::vector<std::vector<DocId>> batch_ids(kBatches);
  size_t unacknowledged = 0;  // written by the batch thread only
  {
    ScopedThreads threads;
    threads.spawn([&] {
      start.store(true, std::memory_order_release);
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<std::string> batch(texts.begin() + b * kBatch,
                                       texts.begin() + (b + 1) * kBatch);
        batch_ids[b] = serving.add_posts(std::move(batch)).value();
        // Acknowledged together: every id is in the sequence on return.
        std::vector<DocId> seq = published_ids();
        std::set<DocId> present(seq.begin(), seq.end());
        for (DocId id : batch_ids[b]) unacknowledged += present.count(id) == 0;
      }
    });
    threads.spawn([&] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (const std::string& text : singles) serving.add_post(text);
    });
  }
  EXPECT_EQ(unacknowledged, 0u);

  std::vector<DocId> seq = published_ids();
  ASSERT_EQ(seq.size(), kBatch * kBatches + kSingles);
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_EQ(batch_ids[b].size(), kBatch);
    auto first = std::find(seq.begin(), seq.end(), batch_ids[b][0]);
    ASSERT_GE(static_cast<size_t>(seq.end() - first), kBatch);
    std::vector<DocId> run(first, first + kBatch);
    EXPECT_EQ(run, batch_ids[b]) << "batch " << b
                                 << " is not one consecutive, in-order run";
  }
  EXPECT_EQ(serving.num_docs(), 24 + kBatch * kBatches + kSingles);
}

// ----------------------------------------- sharded publication order ----

// At three shards, two add_post writers and one add_posts writer race
// readers of cached in-corpus and external queries. Publication is
// serialized globally, so once quiet the deployment must equal the single
// pipeline fed the same posts in the recorded publication order (read
// back from ship_segment frames, under the ids the writers reserved) —
// bit for bit, whatever the interleaving was.
TEST(ConcurrencyStress, ShardedIngestEqualsReplayOfPublicationOrder) {
  constexpr size_t kPerWriter = 6;
  constexpr size_t kReaders = 2;
  constexpr size_t kQueriesPerReader = 30;
  constexpr size_t kTotalIngests = 3 * kPerWriter;
  ServingOptions options;
  options.num_shards = 3;
  options.cache.capacity = 64;
  auto built = ShardedServing::create(make_docs(), {}, options);
  ShardedServing& serving = *built;
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kTotalIngests);
  std::vector<Document> externals;
  for (size_t i = 0; i < 3; ++i) {
    externals.push_back(Document::analyze(
        static_cast<DocId>((1u << 30) + i), texts[i]));
  }

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders);
  {
    ScopedThreads threads;
    for (size_t w = 0; w < 2; ++w) {
      threads.spawn([&, w] {
        for (size_t i = 0; i < kPerWriter; ++i) {
          serving.add_post(texts[w * kPerWriter + i]);
        }
      });
    }
    threads.spawn([&] {
      serving.add_posts(std::vector<std::string>(
          texts.begin() + 2 * kPerWriter, texts.end()));
    });
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(2000 + t);
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          ShardedServing::QueryResult r =
              q % 3 == 2
                  ? serving.find_related_external(
                        externals[q % externals.size()], 5)
                  : serving.find_related(
                        static_cast<DocId>(rng.next_below(kSeedPosts)), 5);
          std::string why = check_snapshot_result(r, kSeedPosts, seed_next_id,
                                                  kTotalIngests);
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
        }
      });
    }
  }  // joins all threads

  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  ShardedServing::ShipSegment seg = serving.ship_segment(
      0, serving.offline_generation(), 1u << 20, 1u << 30);
  std::vector<WalRecord> records;
  wal_scan_frames(seg.raw.data(), seg.raw.size(), &records);
  ASSERT_EQ(records.size(), kTotalIngests);
  Oracle reference(make_docs());
  for (WalRecord& rec : records) reference.publish(rec.id, std::move(rec.text));
  ASSERT_EQ(serving.num_docs(), reference.num_docs());
  auto expect_same = [](const ShardedServing::QueryResult& got,
                        const ShardedServing::QueryResult& want,
                        const std::string& what) {
    EXPECT_EQ(got.epoch, want.epoch) << what;
    ASSERT_EQ(got.results.size(), want.results.size()) << what;
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].doc, want.results[i].doc) << what;
      EXPECT_EQ(got.results[i].score, want.results[i].score) << what;
    }
  };
  for (const Document& d : reference.docs()) {
    for (int k : {3, 10}) {
      expect_same(serving.find_related(d.id(), k),
                  reference.find_related(d.id(), k),
                  "q " + std::to_string(d.id()) + " k " + std::to_string(k));
    }
  }
  for (const Document& ext : externals) {
    expect_same(serving.find_related_external(ext, 5),
                reference.find_related_external(ext, 5),
                "external " + std::to_string(ext.id()));
  }
}

// ------------------------------------------------ workload determinism ----

TEST(ConcurrencyStress, ConcurrentWorkloadReachesDeterministicFinalState) {
  // The same seeded workload, run twice with different interleavings, must
  // converge to the same corpus: identical document count, epoch, and
  // (sorted) ingested texts — ids may be assigned in a different order,
  // but the published set is the same.
  auto run_workload = [] {
    auto built = make_serving(24);
    ShardedServing& serving = *built;
    std::vector<std::string> texts = make_ingest_texts(8);
    {
      ScopedThreads threads;
      for (size_t w = 0; w < 2; ++w) {
        threads.spawn([&, w] {
          for (size_t i = 0; i < 4; ++i) serving.add_post(texts[w * 4 + i]);
        });
      }
      threads.spawn([&] {
        for (size_t q = 0; q < 20; ++q) {
          serving.find_related(static_cast<DocId>(q % 24), 3);
        }
      });
    }
    std::vector<std::string> ingested;
    const RelatedPostPipeline& shard = serving.shard(0).quiescent();
    for (size_t d = serving.shard(0).seed_docs(); d < shard.docs().size();
         ++d) {
      ingested.push_back(shard.docs()[d].text());
    }
    std::sort(ingested.begin(), ingested.end());
    return std::make_tuple(serving.num_docs(), serving.epoch(),
                           std::move(ingested));
  };
  auto a = run_workload();
  auto b = run_workload();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

// ----------------------------------------- pruned path under mutation ----

// The dense kernel reads the sealed flat postings and per-unit operands
// cached per statistics snapshot; every ingest re-seals the touched
// cluster indices (emptying their operand caches) before the epoch
// publishes. This hammer is the regression against a stale-seal reuse: a
// writer ingests each text TWICE in a row, and immediately after the
// pair publishes, querying the second copy must surface the first — a
// near-duplicate is related by construction, so a kernel still serving
// the pre-ingest runs (or operands sized for them) would return it
// missing. Readers hammer the kernel throughout,
// checking the snapshot invariants under TSan; afterwards the quiescent
// corpus must answer every query bit-identically to an exhaustive-path
// pipeline replaying the same history.
TEST(ConcurrencyStress, PrunedPathStaysFreshAcrossIngestReseals) {
  constexpr size_t kPairs = 6;
  constexpr size_t kReaders = 2;
  constexpr size_t kQueriesPerReader = 30;

  auto built = make_serving(24);  // pruned: the default path
  ShardedServing& serving = *built;
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kPairs);

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders + 1);
  {
    ScopedThreads threads;
    threads.spawn([&] {
      for (size_t i = 0; i < kPairs; ++i) {
        DocId a = serving.add_post(texts[i]).value();
        DocId b = serving.add_post(texts[i]).value();
        ASSERT_EQ(b, a + 1);
        // The epoch bump for `b` is published, so the re-sealed runs
        // must already serve both copies: the duplicate is the strongest
        // possible match.
        auto r = serving.find_related(b, 5);
        bool found_twin = false;
        for (const ScoredDoc& sd : r.results) found_twin |= (sd.doc == a);
        if (!found_twin) {
          if (violations.fetch_add(1) == 0) {
            first_violation[kReaders] =
                "freshly ingested duplicate " + std::to_string(a) +
                " missing from pruned results of " + std::to_string(b);
          }
          return;
        }
      }
    });
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(9000 + t);
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          DocId query = static_cast<DocId>(rng.next_below(24));
          auto r = serving.find_related(query, 5);
          std::string why =
              check_snapshot(serving, r, seed_next_id, 2 * kPairs);
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
        }
      });
    }
  }
  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  // Quiescent differential: replay the identical history through an
  // exhaustive-path pipeline; the mutated-then-resealed pruned pipeline
  // must agree bit for bit on every query.
  PipelineOptions exhaustive_opt;
  exhaustive_opt.matcher.exhaustive_fallback = true;
  Oracle reference(make_docs(24), exhaustive_opt);
  for (size_t i = 0; i < kPairs; ++i) {
    reference.add_post(texts[i]);
    reference.add_post(texts[i]);
  }
  ASSERT_EQ(reference.num_docs(), serving.num_docs());
  for (DocId q = 0; q < seed_next_id + 2 * kPairs; ++q) {
    auto want = reference.find_related(q, 5);
    auto got = serving.find_related(q, 5);
    EXPECT_EQ(got.epoch, want.epoch) << "q " << q;
    ASSERT_EQ(got.results.size(), want.results.size()) << "q " << q;
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].doc, want.results[i].doc) << "q " << q;
      EXPECT_EQ(got.results[i].score, want.results[i].score) << "q " << q;
    }
  }
}

// ------------------------------------------- operand cache under publish ----

// Each shard's cluster indices cache their units' scoring operands per
// cross-shard statistics snapshot. Readers querying a 2-shard deployment
// fill those caches from several threads at once, while a writer's
// publications re-finalize one shard's indices (emptying their caches)
// and swap the snapshot every shard's cached operands were computed
// under, so readers keep missing, refilling and racing each other. Under
// TSan this is the proof the cache fill is race-free; afterwards every
// query must equal an oracle that replayed the same publications.
TEST(ConcurrencyStress, OperandCacheFillRacesPublishesOnTwoShards) {
  constexpr size_t kIngests = 8;
  constexpr size_t kReaders = 3;
  constexpr size_t kQueriesPerReader = 40;
  ServingOptions options;
  options.num_shards = 2;
  options.tenant = "operand_cache";
  auto built = make_serving(24, options);
  ShardedServing& serving = *built;
  const DocId seed_next_id = serving.next_id();
  const size_t seed_total =
      serving.shard(0).seed_docs() + serving.shard(1).seed_docs();
  std::vector<std::string> texts = make_ingest_texts(kIngests);

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders);
  {
    ScopedThreads threads;
    threads.spawn([&] {
      for (const std::string& text : texts) serving.add_post(text);
    });
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(7100 + t);
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          DocId query = static_cast<DocId>(rng.next_below(24));
          std::string why = check_snapshot_result(
              serving.find_related(query, 5), seed_total, seed_next_id,
              kIngests);
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
        }
      });
    }
  }
  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  Oracle reference(make_docs(24));
  for (const std::string& text : texts) reference.add_post(text);
  ASSERT_EQ(reference.num_docs(), serving.num_docs());
  for (DocId q = 0; q < seed_next_id + kIngests; ++q) {
    auto want = reference.find_related(q, 5);
    auto got = serving.find_related(q, 5);
    ASSERT_EQ(got.results.size(), want.results.size()) << "q " << q;
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i].doc, want.results[i].doc) << "q " << q;
      EXPECT_EQ(got.results[i].score, want.results[i].score) << "q " << q;
    }
  }
}

// --------------------------------------------------- query-cache hammer ----

TEST(ConcurrencyStress, CacheHammerKeepsSnapshotInvariants) {
  // A deliberately tiny sharded cache under three simultaneous pressures:
  // hot-key readers replaying one (query, k) (maximal hit traffic on one
  // shard's LRU head), sweep readers cycling many keys (constant capacity
  // evictions), and writers bumping the epoch (every publish invalidates
  // every entry). Every result — hit or miss — must still satisfy the
  // snapshot invariants, and no reader may ever see the epoch move
  // backwards (a stale cache hit after a fresh miss would do exactly
  // that). Run under IBSEG_SANITIZE=thread this is the race-freedom proof
  // for the cache's lock-free epoch validation + per-shard mutexes.
  constexpr size_t kWriters = 2;
  constexpr size_t kHotReaders = 2;
  constexpr size_t kSweepReaders = 2;
  constexpr size_t kIngestsPerWriter = 5;
  constexpr size_t kQueriesPerReader = 60;
  constexpr size_t kTotalIngests = kWriters * kIngestsPerWriter;
  constexpr DocId kHotKey = 7;

  ServingOptions options;
  options.cache.capacity = 8;  // far below the live key set
  options.cache.shards = 2;
  auto built = make_serving(kSeedPosts, options);
  ShardedServing& serving = *built;
  ASSERT_NE(serving.query_cache(), nullptr);
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kTotalIngests);

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kHotReaders + kSweepReaders);

  {
    ScopedThreads threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.spawn([&, w] {
        for (size_t i = 0; i < kIngestsPerWriter; ++i) {
          serving.add_post(texts[w * kIngestsPerWriter + i]);
        }
      });
    }
    auto reader = [&](size_t slot, auto pick_query) {
      uint64_t last_epoch = 0;
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        auto [query, k] = pick_query(q);
        ShardedServing::QueryResult r = serving.find_related(query, k);
        std::string why =
            check_snapshot(serving, r, seed_next_id, kTotalIngests);
        if (why.empty() && r.epoch < last_epoch) {
          why = "epoch moved backwards within one reader (stale cache hit)";
        }
        if (!why.empty()) {
          if (violations.fetch_add(1) == 0) first_violation[slot] = why;
          return;
        }
        last_epoch = r.epoch;
      }
    };
    for (size_t t = 0; t < kHotReaders; ++t) {
      threads.spawn([&, t] {
        reader(t, [kHotKey](size_t) { return std::make_pair(kHotKey, 5); });
      });
    }
    for (size_t t = 0; t < kSweepReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(2000 + t);
        reader(kHotReaders + t, [&rng](size_t q) {
          // Vary query AND k: distinct cache keys even for one doc id.
          DocId query = static_cast<DocId>(
              rng.next_below(static_cast<uint64_t>(kSeedPosts)));
          return std::make_pair(query, q % 2 == 0 ? 3 : 5);
        });
      });
    }
  }  // joins all threads

  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  // The sweep over ~2x-capacity keys must have evicted; the hot key must
  // have hit at least once.
  EXPECT_GT(serving.query_cache()->evictions(), 0u);
  EXPECT_GT(serving.query_cache()->hits(), 0u);

  // Quiescent cross-check: with all writers joined, a cache-served answer
  // must equal the wrapped pipeline's direct answer.
  auto fill = serving.find_related(kHotKey, 5);
  auto hit = serving.find_related(kHotKey, 5);
  auto want = serving.shard(0).quiescent().find_related(kHotKey, 5);
  EXPECT_EQ(fill.epoch, kTotalIngests);
  EXPECT_EQ(hit.epoch, kTotalIngests);
  ASSERT_EQ(hit.results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(hit.results[i].doc, want[i].doc);
    EXPECT_EQ(hit.results[i].score, want[i].score);
  }
}

// ------------------------------------------- recluster under contention ----

TEST(ConcurrencyStress, ReclusterUnderReadersAndWriters) {
  // Background re-clustering epochs racing a full reader/writer mix, with
  // the cache on and the pending pool active: every query must still see
  // a consistent snapshot (num_docs/epoch lockstep survives the swap —
  // the swap publishes no documents), per-reader epoch AND offline
  // generation stay monotone, and the final state carries every ingest
  // across every swap. Under TSan this is the proof the generation
  // machinery (recluster_job_mu_ + the exclusive swap + generation-keyed
  // cache) is race-free.
  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 3;
  constexpr size_t kIngestsPerWriter = 8;
  constexpr size_t kQueriesPerReader = 30;
  constexpr size_t kTotalIngests = kWriters * kIngestsPerWriter;
  constexpr uint64_t kReclusters = 3;

  ServingOptions options;
  options.cache.capacity = 64;
  options.recluster.pending_distance_threshold = 0.0;  // pool every ingest
  auto built = make_serving(kSeedPosts, options);
  ShardedServing& serving = *built;
  const size_t seed_total = serving.num_docs();
  const DocId seed_next_id = serving.next_id();
  std::vector<std::string> texts = make_ingest_texts(kTotalIngests);

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders + 1);

  {
    ScopedThreads threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.spawn([&, w] {
        for (size_t i = 0; i < kIngestsPerWriter; ++i) {
          serving.add_post(texts[w * kIngestsPerWriter + i]);
        }
      });
    }
    // The recluster thread: epochs fire while ingests and queries flow.
    threads.spawn([&] {
      uint64_t prev = serving.offline_generation();
      for (uint64_t i = 0; i < kReclusters; ++i) {
        uint64_t g = serving.recluster();
        if (g <= prev) {
          if (violations.fetch_add(1) == 0) {
            first_violation[kReaders] = "generation not strictly monotone";
          }
          return;
        }
        prev = g;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(3000 + t);
        uint64_t last_epoch = 0;
        uint64_t last_gen = 0;
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          DocId query = static_cast<DocId>(
              rng.next_below(static_cast<uint64_t>(kSeedPosts)));
          auto r = serving.find_related(query, 5);
          std::string why =
              check_snapshot_result(r, seed_total, seed_next_id,
                                    kTotalIngests);
          uint64_t gen = serving.offline_generation();
          if (why.empty() && r.epoch < last_epoch) {
            why = "epoch moved backwards within one reader";
          }
          if (why.empty() && gen < last_gen) {
            why = "offline generation moved backwards within one reader";
          }
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
          last_epoch = r.epoch;
          last_gen = gen;
        }
      });
    }
  }  // joins all threads

  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  // Quiescence: no ingest was lost across any swap, the generation
  // reached exactly the fired count, and the invariant held end to end.
  EXPECT_EQ(serving.offline_generation(), kReclusters);
  EXPECT_EQ(serving.epoch(), kTotalIngests);
  EXPECT_EQ(serving.num_docs(), serving.shard(0).seed_docs() + kTotalIngests);
  EXPECT_EQ(serving.next_id(), seed_next_id + kTotalIngests);

  // A final quiescent epoch folds everything into the offline coverage.
  EXPECT_EQ(serving.recluster(), kReclusters + 1);
  EXPECT_EQ(serving.shard(0).offline_docs(), serving.num_docs());
  EXPECT_EQ(serving.docs_since_recluster(), 0u);
  EXPECT_EQ(serving.pending_pool_size(), 0u);
  for (DocId id = seed_next_id; id < seed_next_id + kTotalIngests; ++id) {
    auto r = serving.find_related(id, 3);
    EXPECT_EQ(r.num_docs, serving.num_docs());
    for (const ScoredDoc& sd : r.results) EXPECT_NE(sd.doc, id);
  }
}

TEST(ConcurrencyStress, ShardedReclusterWorkerUnderReadersAndWriters) {
  // The production wiring under load: a ShardedServing deployment with
  // the cache on and a ReclusterWorker whose docs-since trigger fires
  // mid-stream, racing readers and writers across the scatter-gather
  // path. Readers check the summed-coordinate snapshot invariant and
  // both monotonicities; afterwards the worker is guaranteed at least
  // one epoch (the trigger condition persists until a swap clears it).
  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 2;
  constexpr size_t kIngestsPerWriter = 8;
  constexpr size_t kQueriesPerReader = 25;
  constexpr size_t kTotalIngests = kWriters * kIngestsPerWriter;

  ServingOptions options;
  options.num_shards = 3;
  options.cache.capacity = 64;
  GeneratorOptions gen;
  gen.num_posts = kSeedPosts;
  gen.posts_per_scenario = 4;
  gen.seed = kSeedCorpusSeed;
  auto sharded =
      ShardedServing::create(analyze_corpus(generate_corpus(gen)), {}, options);
  ASSERT_NE(sharded, nullptr);
  const size_t seed_total = sharded->num_docs();
  const DocId seed_next_id = sharded->next_id();
  std::vector<std::string> texts = make_ingest_texts(kTotalIngests);

  ReclusterPolicy policy;
  policy.max_docs_since = 6;
  policy.poll_interval_ms = 2;
  ReclusterWorker worker(*sharded, policy);
  worker.start();

  std::atomic<size_t> violations{0};
  std::vector<std::string> first_violation(kReaders);

  {
    ScopedThreads threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.spawn([&, w] {
        for (size_t i = 0; i < kIngestsPerWriter; ++i) {
          sharded->add_post(texts[w * kIngestsPerWriter + i]);
        }
      });
    }
    for (size_t t = 0; t < kReaders; ++t) {
      threads.spawn([&, t] {
        Rng rng(4000 + t);
        uint64_t last_epoch = 0;
        uint64_t last_gen = 0;
        for (size_t q = 0; q < kQueriesPerReader; ++q) {
          DocId query = static_cast<DocId>(
              rng.next_below(static_cast<uint64_t>(kSeedPosts)));
          auto r = sharded->find_related(query, 5);
          std::string why = check_snapshot_result(r, seed_total, seed_next_id,
                                                  kTotalIngests);
          uint64_t gen = sharded->offline_generation();
          if (why.empty() && r.epoch < last_epoch) {
            why = "epoch moved backwards within one reader";
          }
          if (why.empty() && gen < last_gen) {
            why = "offline generation moved backwards within one reader";
          }
          if (!why.empty()) {
            if (violations.fetch_add(1) == 0) first_violation[t] = why;
            return;
          }
          last_epoch = r.epoch;
          last_gen = gen;
        }
      });
    }
  }  // joins writers + readers; the worker keeps polling

  ASSERT_EQ(violations.load(), 0u)
      << "first violation: "
      << *std::find_if(first_violation.begin(), first_violation.end(),
                       [](const std::string& s) { return !s.empty(); });

  // 16 ingests against a trip point of 6: the trigger condition holds
  // until a swap clears it, so the worker must fire within the timeout.
  for (int i = 0; i < 2000 && sharded->offline_generation() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worker.stop();  // joins; no epoch in flight afterwards
  EXPECT_GE(sharded->offline_generation(), 1u);
  EXPECT_GE(worker.reclusters_fired(), 1u);
  EXPECT_EQ(sharded->epoch(), kTotalIngests);
  EXPECT_EQ(sharded->num_docs(), seed_total + kTotalIngests);

  // Quiescent sanity across the reclustered deployment.
  for (DocId id = seed_next_id; id < seed_next_id + kTotalIngests; ++id) {
    auto r = sharded->find_related(id, 3);
    EXPECT_EQ(r.num_docs, sharded->num_docs());
    for (const ScoredDoc& sd : r.results) EXPECT_NE(sd.doc, id);
  }
}

TEST(ConcurrencyStress, MetricPrimitivesAreRaceFreeUnderMixedHammer) {
  // Counter/Gauge/Histogram are relaxed-atomic by design; this hammer is
  // what lets TSan certify that claim. Eight threads hit one instance of
  // each primitive through a barrier-released burst, then counts must be
  // exact (relaxed ordering never loses increments).
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 20000;
  CyclicBarrier barrier(kThreads);
  {
    ScopedThreads threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.spawn([&, t] {
        barrier.arrive_and_wait();
        for (size_t i = 0; i < kOpsPerThread; ++i) {
          counter.inc();
          gauge.add(1.0);
          histogram.observe(1e-6 * static_cast<double>(t + 1));
        }
      });
    }
  }
  EXPECT_EQ(counter.value(), kThreads * kOpsPerThread);
  EXPECT_DOUBLE_EQ(gauge.value(),
                   static_cast<double>(kThreads * kOpsPerThread));
  EXPECT_EQ(histogram.count(), kThreads * kOpsPerThread);
}

TEST(ConcurrencyStress, RegistryRendersWhileMetricsAreWritten) {
  // A scrape (render_text) racing live instrument writes must be safe: the
  // registry lock only guards the directory, while instrument reads are
  // relaxed loads of values other threads are updating.
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("hammer_total", "Hammered.");
  obs::Histogram& histogram =
      registry.histogram("hammer_seconds", "Hammered.", {{"op", "mix"}});
  std::atomic<bool> stop{false};
  {
    ScopedThreads threads;
    for (size_t t = 0; t < 4; ++t) {
      threads.spawn([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          counter.inc();
          histogram.observe(5e-4);
        }
      });
    }
    threads.spawn([&] {
      for (int i = 0; i < 50; ++i) {
        std::string text = registry.render_text();
        EXPECT_NE(text.find("hammer_total"), std::string::npos);
        EXPECT_NE(text.find("hammer_seconds_count"), std::string::npos);
      }
      stop.store(true, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), counter.value());
}

}  // namespace
}  // namespace ibseg
