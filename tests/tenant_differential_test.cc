// Isolation proof of the multi-tenant layer: a TenantRegistry hosting N
// tenants behind one process must be indistinguishable — bit-identical
// ranked lists AND operator== on the double scores — from N independent
// single-tenant ShardedServing deployments over the same per-tenant
// corpora and publication histories. The suite runs shard counts
// {1, 2, 4} across interleaved per-tenant ingests, save/restore of the
// whole registry (per-tenant state directories), per-tenant recluster,
// and cache on/off; plus a cross-tenant leakage probe (a term ingested
// into one tenant must be unreachable from every other tenant's
// vocabulary, id space and query cache) and a loopback proof that the
// network front-end routes TENANT_OPEN-bound connections to the right
// corpus. Registered under the `tenant` ctest label;
// scripts/reproduce.sh IBSEG_TENANT_CHECK=1 runs the label plain and
// under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "core/tenant_registry.h"
#include "datagen/post_generator.h"
#include "net/client.h"
#include "net/server.h"
#include "temp_dir.h"

namespace ibseg {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};
constexpr size_t kPosts = 20;

// Per-tenant corpora come from different domains on purpose: disjoint
// topical vocabulary makes cross-tenant contamination visible, not just
// wrong — a travel term inside the tech tenant's vocabulary could only
// get there through shared state.
struct TenantSpec {
  const char* name;
  ForumDomain domain;
  uint64_t seed;
};

const TenantSpec kTenants[] = {
    {"default", ForumDomain::kProgramming, 11},
    {"alpha", ForumDomain::kTechSupport, 22},
    {"beta", ForumDomain::kTravel, 33},
};

GeneratorOptions corpus_options(ForumDomain domain, size_t posts,
                                uint64_t seed) {
  GeneratorOptions gen;
  gen.domain = domain;
  gen.num_posts = posts;
  gen.posts_per_scenario = 4;
  gen.seed = seed;
  return gen;
}

std::vector<Document> tenant_docs(const TenantSpec& spec) {
  return analyze_corpus(
      generate_corpus(corpus_options(spec.domain, kPosts, spec.seed)));
}

std::vector<std::string> tenant_ingests(const TenantSpec& spec, size_t count,
                                        uint64_t salt) {
  SyntheticCorpus extra = generate_corpus(
      corpus_options(spec.domain, count, spec.seed * 1000 + salt));
  std::vector<std::string> texts;
  texts.reserve(extra.posts.size());
  for (const GeneratedPost& p : extra.posts) texts.push_back(p.text);
  return texts;
}

TenantRegistry::SeedProvider seed_provider() {
  return [](const std::string& name) -> std::vector<Document> {
    for (const TenantSpec& spec : kTenants) {
      if (name == spec.name) return tenant_docs(spec);
    }
    return {};
  };
}

std::vector<std::string> tenant_names() {
  return {"alpha", "beta"};  // "default" is implicit
}

ServingOptions serving_template(int shards, size_t cache_capacity = 0) {
  ServingOptions options;
  options.num_shards = shards;
  options.cache.capacity = cache_capacity;
  return options;
}

/// An isolated single-tenant deployment for one spec — the reference a
/// registry-hosted tenant must be bit-identical to. The reference gets
/// its own distinct metric label so the two deployments cannot even
/// share a metric series.
std::unique_ptr<ShardedServing> isolated_reference(const TenantSpec& spec,
                                                   int shards,
                                                   size_t cache = 0) {
  ServingOptions options = serving_template(shards, cache);
  options.tenant = std::string("ref-") + spec.name;
  return ShardedServing::create(tenant_docs(spec), {}, options);
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    // Bit-identical is the contract: operator== on the doubles.
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// Every in-corpus query at several k: the registry-hosted tenant must
/// equal its isolated reference exactly.
void expect_equivalent(const ShardedServing& hosted,
                       const ShardedServing& reference,
                       const std::string& what) {
  ASSERT_EQ(hosted.num_docs(), reference.num_docs()) << what;
  ASSERT_EQ(hosted.epoch(), reference.epoch()) << what;
  ASSERT_EQ(hosted.next_id(), reference.next_id()) << what;
  for (DocId id = 0; id < reference.next_id(); ++id) {
    for (int k : {1, 3, 10}) {
      ShardedServing::QueryResult want = reference.find_related(id, k);
      ShardedServing::QueryResult got = hosted.find_related(id, k);
      EXPECT_EQ(got.epoch, want.epoch) << what;
      EXPECT_EQ(got.num_docs, want.num_docs) << what;
      expect_identical(got.results, want.results,
                       what + " doc " + std::to_string(id) + " k " +
                           std::to_string(k));
    }
  }
}

// ------------------------------------------------ interleaved ingests ----

TEST(TenantDifferential, RegistryMatchesIsolatedDeployments) {
  for (int shards : kShardCounts) {
    std::string what = "shards=" + std::to_string(shards);
    TenantRegistryOptions options;
    options.serving = serving_template(shards);
    std::unique_ptr<TenantRegistry> registry =
        TenantRegistry::open(options, tenant_names(), seed_provider());
    ASSERT_NE(registry, nullptr) << what;
    ASSERT_EQ(registry->size(), 3u) << what;

    std::map<std::string, std::unique_ptr<ShardedServing>> references;
    std::map<std::string, std::vector<std::string>> extras;
    for (const TenantSpec& spec : kTenants) {
      references[spec.name] = isolated_reference(spec, shards);
      ASSERT_NE(references[spec.name], nullptr) << what;
      extras[spec.name] = tenant_ingests(spec, 6, 1);
    }

    // Interleave ingests ACROSS tenants — the registry serves them all
    // from one process, and each publication must land only in its own
    // tenant, with the same id sequence an isolated deployment assigns.
    for (size_t i = 0; i < 6; ++i) {
      for (const TenantSpec& spec : kTenants) {
        ShardedServing* hosted = registry->find(spec.name);
        ASSERT_NE(hosted, nullptr) << what;
        const std::string& text = extras[spec.name][i];
        ASSERT_EQ(hosted->add_post(text),
                  references[spec.name]->add_post(text))
            << what << " tenant " << spec.name;
      }
    }
    for (const TenantSpec& spec : kTenants) {
      expect_equivalent(*registry->find(spec.name), *references[spec.name],
                        what + " tenant " + spec.name);
    }
  }
}

// ------------------------------------------------- save/restore cycles ----

TEST(TenantDifferential, SaveRestoreRoundTripPerTenant) {
  for (int shards : kShardCounts) {
    std::string what = "roundtrip shards=" + std::to_string(shards);
    std::string root = fresh_temp_dir("tenant_rt" + std::to_string(shards));

    TenantRegistryOptions options;
    options.state_root = root;
    options.serving = serving_template(shards);
    std::unique_ptr<TenantRegistry> registry =
        TenantRegistry::open(options, tenant_names(), seed_provider());
    ASSERT_NE(registry, nullptr) << what;

    std::map<std::string, std::unique_ptr<ShardedServing>> references;
    for (const TenantSpec& spec : kTenants) {
      references[spec.name] = isolated_reference(spec, shards);
      // History split across the save: some ingests baked into the
      // snapshots, some only in the per-tenant WALs.
      for (const std::string& text : tenant_ingests(spec, 3, 2)) {
        registry->find(spec.name)->add_post(text);
        references[spec.name]->add_post(text);
      }
    }
    ASSERT_TRUE(registry->save_all()) << what;
    for (const TenantSpec& spec : kTenants) {
      for (const std::string& text : tenant_ingests(spec, 3, 3)) {
        registry->find(spec.name)->add_post(text);
        references[spec.name]->add_post(text);
      }
      EXPECT_TRUE(std::filesystem::exists(
          std::filesystem::path(TenantRegistry::tenant_dir(root, spec.name)) /
          "MANIFEST"))
          << what << " tenant " << spec.name;
    }
    registry.reset();  // clean shutdown; WAL tails hold the late ingests

    // Reopen: every tenant restores from its own directory. The seed
    // provider must NOT be consulted for restored tenants — hand one that
    // returns a corpus that would fail the differential if used.
    TenantRegistry::SeedProvider poisoned =
        [](const std::string&) -> std::vector<Document> {
      return tenant_docs({"poison", ForumDomain::kHealth, 999});
    };
    std::unique_ptr<TenantRegistry> restored =
        TenantRegistry::open(options, tenant_names(), poisoned);
    ASSERT_NE(restored, nullptr) << what;
    for (const TenantSpec& spec : kTenants) {
      expect_equivalent(*restored->find(spec.name), *references[spec.name],
                        what + " restored tenant " + spec.name);
      // Life continues after restore, id sequences included.
      for (const std::string& text : tenant_ingests(spec, 2, 4)) {
        ASSERT_EQ(restored->find(spec.name)->add_post(text),
                  references[spec.name]->add_post(text))
            << what << " tenant " << spec.name;
      }
      expect_equivalent(*restored->find(spec.name), *references[spec.name],
                        what + " post-restore ingests " + spec.name);
    }
  }
}

TEST(TenantDifferential, ReopenSeedsOnlyTheNewTenant) {
  std::string root = fresh_temp_dir("tenant_grow");
  TenantRegistryOptions options;
  options.state_root = root;
  options.serving = serving_template(2);
  std::unique_ptr<TenantRegistry> registry =
      TenantRegistry::open(options, {"alpha"}, seed_provider());
  ASSERT_NE(registry, nullptr);
  ASSERT_TRUE(registry->save_all());
  registry.reset();
  // Reopen with one MORE tenant: alpha and default restore, beta seeds.
  std::unique_ptr<TenantRegistry> grown =
      TenantRegistry::open(options, {"alpha", "beta"}, seed_provider());
  ASSERT_NE(grown, nullptr);
  ASSERT_EQ(grown->size(), 3u);
  std::unique_ptr<ShardedServing> beta_reference =
      isolated_reference(kTenants[2], 2);
  expect_equivalent(*grown->find("beta"), *beta_reference, "seeded beta");
}

// ------------------------------------------------ per-tenant recluster ----

TEST(TenantDifferential, ReclusterIsPerTenant) {
  TenantRegistryOptions options;
  options.serving = serving_template(2);
  std::unique_ptr<TenantRegistry> registry =
      TenantRegistry::open(options, tenant_names(), seed_provider());
  ASSERT_NE(registry, nullptr);
  std::map<std::string, std::unique_ptr<ShardedServing>> references;
  for (const TenantSpec& spec : kTenants) {
    references[spec.name] = isolated_reference(spec, 2);
    for (const std::string& text : tenant_ingests(spec, 5, 5)) {
      registry->find(spec.name)->add_post(text);
      references[spec.name]->add_post(text);
    }
  }
  // Recluster ONE tenant. Its offline generation advances and its answers
  // track an isolated deployment that reclustered identically; the other
  // tenants' generations and answers must not move at all.
  uint64_t generation = registry->find("alpha")->recluster();
  EXPECT_EQ(generation, references["alpha"]->recluster());
  EXPECT_EQ(registry->find("alpha")->offline_generation(), generation);
  EXPECT_EQ(registry->find("beta")->offline_generation(), 0u);
  EXPECT_EQ(registry->find("default")->offline_generation(), 0u);
  for (const TenantSpec& spec : kTenants) {
    expect_equivalent(*registry->find(spec.name), *references[spec.name],
                      std::string("post-recluster tenant ") + spec.name);
  }
}

// --------------------------------------------------------- query cache ----

TEST(TenantDifferential, CachesAreDistinctAndIsolated) {
  TenantRegistryOptions options;
  options.serving = serving_template(2, /*cache=*/128);
  std::unique_ptr<TenantRegistry> registry =
      TenantRegistry::open(options, tenant_names(), seed_provider());
  ASSERT_NE(registry, nullptr);
  ShardedServing* alpha = registry->find("alpha");
  ShardedServing* beta = registry->find("beta");
  ASSERT_NE(alpha->query_cache(), nullptr);
  ASSERT_NE(beta->query_cache(), nullptr);
  // Distinct cache objects — a shared cache would be a leak channel (keys
  // are (doc, k, epoch) with no tenant component, BY DESIGN: isolation
  // comes from each tenant owning its cache, not from key salting).
  EXPECT_NE(alpha->query_cache(), beta->query_cache());

  std::unique_ptr<ShardedServing> reference =
      isolated_reference(kTenants[1], 2, 128);
  // Warm alpha: second pass must hit and stay bit-identical.
  expect_equivalent(*alpha, *reference, "cache cold");
  uint64_t hits_before = alpha->query_cache()->hits();
  expect_equivalent(*alpha, *reference, "cache warm");
  uint64_t hits_warm = alpha->query_cache()->hits();
  EXPECT_GT(hits_warm, hits_before);

  // A publication in ANOTHER tenant must not invalidate alpha's cache:
  // alpha's entries keep hitting afterwards.
  beta->add_post(tenant_ingests(kTenants[2], 1, 6)[0]);
  expect_equivalent(*alpha, *reference, "cache after foreign ingest");
  EXPECT_GT(alpha->query_cache()->hits(), hits_warm);

  // A publication in alpha itself DOES invalidate — answers track the
  // new corpus, never a stale entry.
  std::string own = tenant_ingests(kTenants[1], 1, 7)[0];
  alpha->add_post(own);
  reference->add_post(own);
  expect_equivalent(*alpha, *reference, "cache after own ingest");
}

// ------------------------------------------------------- leakage probe ----

TEST(TenantDifferential, IngestedTermsNeverLeakAcrossTenants) {
  TenantRegistryOptions options;
  options.serving = serving_template(2);
  std::unique_ptr<TenantRegistry> registry =
      TenantRegistry::open(options, tenant_names(), seed_provider());
  ASSERT_NE(registry, nullptr);

  // A sentinel token no generator emits, ingested into alpha only. It
  // must appear in at least one of alpha's shard vocabularies and in NO
  // shard vocabulary of any other tenant — the vocabularies are the
  // shared-state surface a single-tenant design would have merged.
  const std::string sentinel = "zzqglorpix";
  ShardedServing* alpha = registry->find("alpha");
  DocId beta_next_before = registry->find("beta")->next_id();
  DocId default_next_before = registry->find("default")->next_id();
  alpha->add_post("my zzqglorpix adapter fails and the zzqglorpix driver "
                  "crashes on boot");

  auto vocab_has = [&](const ShardedServing& serving) {
    for (uint32_t s = 0; s < serving.num_shards(); ++s) {
      if (serving.shard(s).quiescent().vocab().find(sentinel) !=
          kInvalidTerm) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(vocab_has(*alpha)) << "probe term must intern in alpha";
  EXPECT_FALSE(vocab_has(*registry->find("beta")));
  EXPECT_FALSE(vocab_has(*registry->find("default")));

  // Id spaces are per-tenant: alpha's ingest moved no other watermark.
  EXPECT_EQ(registry->find("beta")->next_id(), beta_next_before);
  EXPECT_EQ(registry->find("default")->next_id(), default_next_before);

  // And the doc is reachable only through alpha: other tenants' corpora
  // never return an id at or beyond their own watermark.
  for (const char* name : {"beta", "default"}) {
    ShardedServing* other = registry->find(name);
    for (DocId id = 0; id < other->next_id(); ++id) {
      for (const ScoredDoc& sd : other->find_related(id, 10).results) {
        EXPECT_LT(sd.doc, other->next_id()) << name;
      }
    }
  }
}

// ---------------------------------------------------- loopback routing ----

TEST(TenantDifferential, ServerRoutesConnectionsToBoundTenant) {
  std::string root = fresh_temp_dir("tenant_wire");
  TenantRegistryOptions options;
  options.state_root = root;
  options.serving = serving_template(2);
  std::unique_ptr<TenantRegistry> registry =
      TenantRegistry::open(options, tenant_names(), seed_provider());
  ASSERT_NE(registry, nullptr);

  net::ServerOptions server_options;
  server_options.port = 0;
  auto server = std::make_unique<net::Server>(registry.get(), server_options);
  ASSERT_TRUE(server->start());

  auto alpha_client = net::Client::connect("127.0.0.1", server->port());
  auto beta_client = net::Client::connect("127.0.0.1", server->port());
  auto default_client = net::Client::connect("127.0.0.1", server->port());
  ASSERT_NE(alpha_client, nullptr);
  ASSERT_NE(beta_client, nullptr);
  ASSERT_NE(default_client, nullptr);

  // TENANT_LIST names every tenant, sorted.
  net::TenantListingResponse listing;
  ASSERT_TRUE(default_client->tenant_list(&listing).ok());
  ASSERT_EQ(listing.tenants.size(), 3u);
  EXPECT_EQ(listing.tenants[0].name, "alpha");
  EXPECT_EQ(listing.tenants[1].name, "beta");
  EXPECT_EQ(listing.tenants[2].name, "default");

  // Unknown tenant: documented error, connection stays usable.
  net::TenantOpenedResponse opened;
  net::CallResult bad = default_client->tenant_open("nosuch", &opened);
  ASSERT_TRUE(bad.transport_ok);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.code, net::ErrCode::kUnknownTenant);
  net::PongResponse pong;
  ASSERT_TRUE(default_client->ping(&pong).ok());

  ASSERT_TRUE(alpha_client->tenant_open("alpha", &opened).ok());
  EXPECT_EQ(opened.num_docs, registry->find("alpha")->num_docs());
  ASSERT_TRUE(beta_client->tenant_open("beta", &opened).ok());

  // An ingest through the alpha-bound connection lands in alpha only.
  size_t beta_docs = registry->find("beta")->num_docs();
  size_t default_docs = registry->find("default")->num_docs();
  DocId added = 0;
  ASSERT_TRUE(alpha_client
                  ->add_post("the replacement zzweyric cable finally "
                             "charges the laptop",
                             &added)
                  .ok());
  EXPECT_EQ(added + 1, registry->find("alpha")->next_id());
  EXPECT_EQ(registry->find("beta")->num_docs(), beta_docs);
  EXPECT_EQ(registry->find("default")->num_docs(), default_docs);

  // QUERY over the bound connection is bit-identical to querying the
  // tenant's backend in-process.
  net::RelatedResponse related;
  ASSERT_TRUE(alpha_client->query(added, 5, &related).ok());
  ShardedServing::QueryResult want =
      registry->find("alpha")->find_related(added, 5);
  EXPECT_EQ(related.epoch, want.epoch);
  EXPECT_EQ(related.num_docs, want.num_docs);
  expect_identical(related.results, want.results, "wire query");

  // SAVE over the bound connection persists that tenant's directory only.
  ASSERT_TRUE(alpha_client->save().ok());
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(TenantRegistry::tenant_dir(root, "alpha")) /
      "MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(TenantRegistry::tenant_dir(root, "beta")) /
      "MANIFEST"));

  // Drain persists EVERY tenant.
  server->drain();
  server.reset();
  for (const TenantSpec& spec : kTenants) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(TenantRegistry::tenant_dir(root, spec.name)) /
        "MANIFEST"))
        << spec.name;
  }
}

TEST(TenantDifferential, SingleTenantServerAnswersTenantFrames) {
  // Pre-tenant deployments (Server over a bare backend) still answer the
  // tenant frames: the default tenant exists implicitly.
  ServingOptions serving = serving_template(2);
  std::unique_ptr<ShardedServing> backend =
      ShardedServing::create(tenant_docs(kTenants[0]), {}, serving);
  ASSERT_NE(backend, nullptr);
  net::ServerOptions server_options;
  server_options.port = 0;
  auto server = std::make_unique<net::Server>(backend.get(), server_options);
  ASSERT_TRUE(server->start());
  auto client = net::Client::connect("127.0.0.1", server->port());
  ASSERT_NE(client, nullptr);

  net::TenantListingResponse listing;
  ASSERT_TRUE(client->tenant_list(&listing).ok());
  ASSERT_EQ(listing.tenants.size(), 1u);
  EXPECT_EQ(listing.tenants[0].name, "default");
  EXPECT_EQ(listing.tenants[0].num_docs, backend->num_docs());

  net::TenantOpenedResponse opened;
  EXPECT_TRUE(client->tenant_open("default", &opened).ok());
  net::CallResult bad = client->tenant_open("alpha", &opened);
  ASSERT_TRUE(bad.transport_ok);
  EXPECT_EQ(bad.error.code, net::ErrCode::kUnknownTenant);
  server->drain();
}

}  // namespace
}  // namespace ibseg
