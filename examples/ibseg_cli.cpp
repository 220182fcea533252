// ibseg_cli — command-line front end for the library.
//
//   ibseg_cli generate <tech|travel|prog> <num-posts> <corpus-file>
//       Synthesize a corpus (with ground truth) and save it.
//
//   ibseg_cli segment
//       Read one post from stdin, print its intention segments.
//
//   ibseg_cli query <corpus-file> <doc-id> [k]
//       Top-k related posts for a post of the corpus.
//
//   ibseg_cli ask <corpus-file> [k]
//       Top-k related posts for a NEW post read from stdin (external
//       query: nothing is ingested).
//
// `query` and `ask` serve through the scatter-gather facade
// (core/sharded_serving.h) — the same serving path ibseg_server runs.
//
// A leading `--metrics` (Prometheus text) or `--metrics=json` flag makes
// the process dump its metrics registry — query/ingest counters, latency
// and per-stage timing histograms, corpus gauges — after the command
// finishes:
//
//   ibseg_cli --metrics query posts.corpus 0 5
//
// `--cache[=N]` enables the epoch-invalidated result cache with capacity
// N (default 1024) — combine with --metrics to see
// ibseg_query_cache_{hits,misses,evictions,size}:
//
//   ibseg_cli --metrics --cache=256 query posts.corpus 0 5
//
// `--shards=N` (default 1) serves through N hash-partitioned shards;
// results are bit-identical at any N.
//
// Persistence flags (see docs/ARCHITECTURE.md §5): `--save=DIR` writes the
// complete serving state as a state directory (per-shard snapshot v2 +
// WAL, publication journal, manifest) after the command, and
// `--restore=DIR` serves from such a directory instead of recomputing the
// offline phase (the corpus file is then only consulted for scenario
// annotation; the shard count comes from the directory) — together the
// warm-restart loop:
//
//   ibseg_cli --shards=4 --save=state.d query posts.corpus 0 5
//   ibseg_cli --restore=state.d query posts.corpus 0 5
//
// `--connect=HOST:PORT` turns the CLI into a thin network client speaking
// the docs/PROTOCOL.md wire protocol against a running ibseg_server — no
// corpus file is needed, the server owns the state:
//
//   ibseg_cli --connect=127.0.0.1:7433 query <doc-id> [k]
//   ibseg_cli --connect=127.0.0.1:7433 ask [k]      (post on stdin)
//   ibseg_cli --connect=127.0.0.1:7433 add          (post on stdin)
//   ibseg_cli --connect=127.0.0.1:7433 ping | save | recluster | drain
//
// and `--metrics[=json]` with --connect fetches the *server's* metrics
// over the wire instead of dumping the local (empty) registry.
//
// Corpus files are either the ibseg corpus format (from `generate`) or a
// plain text file with one post per line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/sharded_serving.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "storage/corpus_io.h"

using namespace ibseg;

namespace {

// Leading-flag state for the query path (see usage()).
size_t g_cache_capacity = 0;  // --cache[=N]: result-cache capacity, 0 = off
std::string g_save_path;      // --save=DIR: write a state directory after
std::string g_restore_path;   // --restore=DIR: serve from a state directory
int g_num_shards = 1;         // --shards=N: hash-partitioned scatter-gather
std::string g_connect;        // --connect=HOST:PORT: thin network client
std::string g_tenant;         // --tenant=NAME: bind the connection (TENANT_OPEN)

int usage() {
  std::fprintf(stderr,
               "usage: ibseg_cli [--metrics[=json]] [--cache[=N]] "
               "[--shards=N]\n"
               "                 [--save=DIR] [--restore=DIR] "
               "<command> ...\n"
               "  ibseg_cli generate <tech|travel|prog|health> <num-posts> <file>\n"
               "  ibseg_cli segment            (post on stdin)\n"
               "  ibseg_cli query <corpus-file> <doc-id> [k]\n"
               "  ibseg_cli ask <corpus-file> [k]     (post on stdin)\n"
               "  --metrics        print the Prometheus text exposition after\n"
               "                   the command (latency/stage histograms,\n"
               "                   ingest counters, corpus gauges)\n"
               "  --metrics=json   same, as a JSON dump with p50/p95/p99\n"
               "  --cache[=N]      enable the epoch-invalidated query result\n"
               "                   cache, capacity N (default 1024)\n"
               "  --shards=N       serve through N hash-partitioned shards\n"
               "                   (default 1; bit-identical at any N)\n"
               "  --save=DIR       after serving, persist the full state as\n"
               "                   a state directory (per-shard snapshot v2\n"
               "                   + WAL, journal, manifest; see\n"
               "                   docs/ARCHITECTURE.md)\n"
               "  --restore=DIR    serve from a state directory instead of\n"
               "                   recomputing the offline phase\n"
               "  --connect=H:P    thin client against a running\n"
               "                   ibseg_server (docs/PROTOCOL.md):\n"
               "                   query <doc-id> [k] | ask [k] | add |\n"
               "                   ping | save | recluster | drain |\n"
               "                   tenants;\n"
               "                   recluster forces one background\n"
               "                   re-clustering epoch and prints the new\n"
               "                   generation; --metrics fetches the\n"
               "                   server's metrics over the wire\n"
               "  --tenant=NAME    (with --connect) bind the connection to\n"
               "                   tenant NAME via TENANT_OPEN before the\n"
               "                   command; `tenants` lists every tenant\n"
               "                   with its corpus size\n");
  return 2;
}

// The --connect=HOST:PORT thin-client path: every command is one
// request/response exchange over the net::Client reference implementation
// of docs/PROTOCOL.md. Returns the process exit code.
int run_remote(const char* metrics_mode, int argc, char** argv) {
  size_t colon = g_connect.rfind(':');
  if (colon == std::string::npos || colon + 1 >= g_connect.size()) {
    std::fprintf(stderr, "error: --connect needs HOST:PORT\n");
    return 2;
  }
  const std::string host = g_connect.substr(0, colon);
  int port = std::atoi(g_connect.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return usage();
  auto client = net::Client::connect(host, static_cast<uint16_t>(port));
  if (client == nullptr) {
    std::fprintf(stderr, "error: cannot connect to %s\n", g_connect.c_str());
    return 1;
  }

  auto report = [](const net::CallResult& result) -> int {
    if (result.ok()) return 0;
    if (result.transport_ok) {
      std::fprintf(stderr, "error: server responded %u: %s\n",
                   static_cast<unsigned>(result.error.code),
                   result.error.message.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", result.transport_error.c_str());
    }
    return 1;
  };

  // Bind the connection before the command: every subsequent request on
  // this connection then operates on the named tenant's corpus.
  if (!g_tenant.empty()) {
    net::TenantOpenedResponse opened;
    if (report(client->tenant_open(g_tenant, &opened)) != 0) return 1;
  }

  auto print_related = [](const net::RelatedResponse& related) {
    std::printf("epoch %llu, %llu docs\n",
                static_cast<unsigned long long>(related.epoch),
                static_cast<unsigned long long>(related.num_docs));
    for (const ScoredDoc& sd : related.results) {
      std::printf("  %4u  %.3f\n", sd.doc, sd.score);
    }
  };
  auto read_stdin = [] {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  };

  if (argc < 1) return usage();
  const std::string cmd = argv[0];
  int rc;
  if (cmd == "query" && (argc == 2 || argc == 3)) {
    DocId doc = static_cast<DocId>(std::strtoul(argv[1], nullptr, 10));
    uint32_t k = argc == 3 ? static_cast<uint32_t>(std::atoi(argv[2])) : 5;
    net::RelatedResponse related;
    rc = report(client->query(doc, k, &related));
    if (rc == 0) print_related(related);
  } else if (cmd == "ask" && argc <= 2) {
    uint32_t k = argc == 2 ? static_cast<uint32_t>(std::atoi(argv[1])) : 5;
    net::RelatedResponse related;
    rc = report(client->ask(read_stdin(), k, &related));
    if (rc == 0) print_related(related);
  } else if (cmd == "add" && argc == 1) {
    DocId id = 0;
    rc = report(client->add_post(read_stdin(), &id));
    if (rc == 0) std::printf("added doc %u\n", id);
  } else if (cmd == "ping" && argc == 1) {
    net::PongResponse pong;
    rc = report(client->ping(&pong));
    if (rc == 0) {
      std::printf("pong: epoch %llu, %llu docs\n",
                  static_cast<unsigned long long>(pong.epoch),
                  static_cast<unsigned long long>(pong.num_docs));
    }
  } else if (cmd == "save" && argc == 1) {
    rc = report(client->save());
    if (rc == 0) std::printf("saved\n");
  } else if (cmd == "recluster" && argc == 1) {
    net::ReclusteredResponse reclustered;
    rc = report(client->recluster(&reclustered));
    if (rc == 0) {
      std::printf("reclustered: generation %llu, %u intention clusters\n",
                  static_cast<unsigned long long>(reclustered.generation),
                  reclustered.num_clusters);
    }
  } else if (cmd == "drain" && argc == 1) {
    rc = report(client->drain());
    if (rc == 0) std::printf("draining\n");
  } else if (cmd == "tenants" && argc == 1) {
    net::TenantListingResponse listing;
    rc = report(client->tenant_list(&listing));
    if (rc == 0) {
      for (const net::TenantEntry& entry : listing.tenants) {
        std::printf("%-32s %llu docs\n", entry.name.c_str(),
                    static_cast<unsigned long long>(entry.num_docs));
      }
    }
  } else {
    return usage();
  }
  if (rc == 0 && metrics_mode != nullptr) {
    std::string body;
    rc = report(client->metrics(
        std::strcmp(metrics_mode, "json") == 0 ? 1 : 0, &body));
    if (rc == 0) std::fputs(body.c_str(), stdout);
  }
  return rc;
}

// Loads either an ibseg corpus file or a plain one-post-per-line file.
std::vector<Document> load_docs(const std::string& path,
                                SyntheticCorpus* corpus_out) {
  if (auto corpus = load_corpus_file(path)) {
    if (corpus_out != nullptr) *corpus_out = *corpus;
    return analyze_corpus(*corpus);
  }
  std::ifstream is(path);
  std::vector<Document> docs;
  if (!is) return docs;
  size_t id = 0;
  for (const std::string& text : load_plain_posts(is)) {
    docs.push_back(Document::analyze(static_cast<DocId>(id++), text));
  }
  return docs;
}

int cmd_generate(int argc, char** argv) {
  if (argc != 3) return usage();
  GeneratorOptions gen;
  if (std::strcmp(argv[0], "tech") == 0) {
    gen.domain = ForumDomain::kTechSupport;
  } else if (std::strcmp(argv[0], "travel") == 0) {
    gen.domain = ForumDomain::kTravel;
  } else if (std::strcmp(argv[0], "prog") == 0) {
    gen.domain = ForumDomain::kProgramming;
  } else if (std::strcmp(argv[0], "health") == 0) {
    gen.domain = ForumDomain::kHealth;
  } else {
    return usage();
  }
  gen.num_posts = std::strtoull(argv[1], nullptr, 10);
  if (gen.num_posts == 0) return usage();
  SyntheticCorpus corpus = generate_corpus(gen);
  if (!save_corpus_file(corpus, argv[2])) {
    std::fprintf(stderr, "error: cannot write %s\n", argv[2]);
    return 1;
  }
  std::printf("wrote %zu posts (%zu scenarios) to %s\n", corpus.posts.size(),
              corpus.num_scenarios, argv[2]);
  return 0;
}

int cmd_segment() {
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  Document doc = Document::analyze(0, ss.str());
  if (doc.num_units() == 0) {
    std::fprintf(stderr, "error: empty post\n");
    return 1;
  }
  Segmentation seg = cm_tiling_segment(doc);
  std::printf("%zu sentences, %zu intention segments\n", doc.num_units(),
              seg.num_segments());
  int idx = 1;
  for (auto [b, e] : seg.segments()) {
    std::string_view text = doc.range_text(b, e);
    std::printf("[%d] %.*s\n", idx++, static_cast<int>(text.size()),
                text.data());
  }
  return 0;
}

// Opens the serving facade the local commands run: restored from
// --restore=DIR, or built over the corpus file at --shards=N. `corpus`
// receives the corpus (for scenario annotation) when the file is one.
std::unique_ptr<ShardedServing> open_serving(const char* corpus_path,
                                             SyntheticCorpus* corpus) {
  ServingOptions serving_options;
  serving_options.cache.capacity = g_cache_capacity;
  serving_options.num_shards = g_num_shards;
  if (!g_restore_path.empty()) {
    auto serving =
        ShardedServing::restore(g_restore_path, {}, serving_options);
    if (serving == nullptr) {
      std::fprintf(stderr, "error: cannot restore state from %s\n",
                   g_restore_path.c_str());
      return nullptr;
    }
    if (auto c = load_corpus_file(corpus_path)) *corpus = *c;
    return serving;
  }
  std::vector<Document> docs = load_docs(corpus_path, corpus);
  if (docs.empty()) {
    std::fprintf(stderr, "error: cannot load corpus %s\n", corpus_path);
    return nullptr;
  }
  auto serving = ShardedServing::create(std::move(docs), {}, serving_options);
  if (serving == nullptr) std::fprintf(stderr, "error: cannot build serving\n");
  return serving;
}

// A document's text, read from its owner shard.
std::string doc_text(const ShardedServing& serving, DocId id) {
  const ServingPipeline& shard =
      serving.shard(ShardedServing::shard_of(id, serving.num_shards()));
  for (const Document& d : shard.quiescent().docs()) {
    if (d.id() == id) return d.text();
  }
  return "";
}

// Honors --save=DIR after a local command. Returns the exit code.
int save_if_requested(ShardedServing& serving) {
  if (g_save_path.empty()) return 0;
  if (!serving.save(g_save_path)) {
    std::fprintf(stderr, "error: cannot save state to %s\n",
                 g_save_path.c_str());
    return 1;
  }
  std::printf("saved state (%zu docs, %u shards, epoch %llu) to %s\n",
              serving.num_docs(), serving.num_shards(),
              static_cast<unsigned long long>(serving.epoch()),
              g_save_path.c_str());
  return 0;
}

int cmd_query(int argc, char** argv) {
  if (argc < 2 || argc > 3) return usage();
  DocId query = static_cast<DocId>(std::strtoul(argv[1], nullptr, 10));
  int k = argc >= 3 ? std::atoi(argv[2]) : 5;
  if (k <= 0) return usage();
  SyntheticCorpus corpus;
  std::unique_ptr<ShardedServing> serving = open_serving(argv[0], &corpus);
  if (serving == nullptr) return 1;
  if (query >= serving->num_docs()) return usage();

  std::printf("query %u (%u shards): \"%.70s...\"\n", query,
              serving->num_shards(), doc_text(*serving, query).c_str());
  for (const ScoredDoc& sd : serving->find_related(query, k).results) {
    std::printf("  %4u  %.3f  \"%.70s...\"", sd.doc, sd.score,
                doc_text(*serving, sd.doc).c_str());
    if (sd.doc < corpus.posts.size() && query < corpus.posts.size()) {
      std::printf("  [scenario %d%s]", corpus.posts[sd.doc].scenario_id,
                  corpus.posts[sd.doc].scenario_id ==
                          corpus.posts[query].scenario_id
                      ? " *"
                      : "");
    }
    std::printf("\n");
  }
  return save_if_requested(*serving);
}

int cmd_ask(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  int k = argc >= 2 ? std::atoi(argv[1]) : 5;
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  Document query = Document::analyze(1u << 30, ss.str());
  if (query.num_units() == 0) {
    std::fprintf(stderr, "error: empty post on stdin\n");
    return 1;
  }
  SyntheticCorpus corpus;
  std::unique_ptr<ShardedServing> serving = open_serving(argv[0], &corpus);
  if (serving == nullptr) return 1;
  auto related = serving->find_related_external(query, k).results;
  if (related.empty()) std::printf("no related posts found\n");
  for (const ScoredDoc& sd : related) {
    std::printf("  %4u  %.3f  \"%.70s...\"\n", sd.doc, sd.score,
                doc_text(*serving, sd.doc).c_str());
  }
  return save_if_requested(*serving);
}

}  // namespace

int main(int argc, char** argv) {
  int arg = 1;
  const char* metrics_mode = nullptr;  // "text" or "json"
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strncmp(argv[arg], "--metrics", 9) == 0) {
      const char* suffix = argv[arg] + 9;
      if (*suffix == '\0') {
        metrics_mode = "text";
      } else if (std::strcmp(suffix, "=text") == 0) {
        metrics_mode = "text";
      } else if (std::strcmp(suffix, "=json") == 0) {
        metrics_mode = "json";
      } else {
        return usage();
      }
    } else if (std::strncmp(argv[arg], "--cache", 7) == 0) {
      const char* suffix = argv[arg] + 7;
      if (*suffix == '\0') {
        g_cache_capacity = 1024;
      } else if (*suffix == '=') {
        g_cache_capacity = std::strtoull(suffix + 1, nullptr, 10);
        if (g_cache_capacity == 0) return usage();
      } else {
        return usage();
      }
    } else if (std::strncmp(argv[arg], "--save=", 7) == 0) {
      g_save_path = argv[arg] + 7;
      if (g_save_path.empty()) return usage();
    } else if (std::strncmp(argv[arg], "--restore=", 10) == 0) {
      g_restore_path = argv[arg] + 10;
      if (g_restore_path.empty()) return usage();
    } else if (std::strncmp(argv[arg], "--shards=", 9) == 0) {
      g_num_shards = std::atoi(argv[arg] + 9);
      if (g_num_shards <= 0) return usage();
    } else if (std::strncmp(argv[arg], "--connect=", 10) == 0) {
      g_connect = argv[arg] + 10;
      if (g_connect.empty()) return usage();
    } else if (std::strncmp(argv[arg], "--tenant=", 9) == 0) {
      g_tenant = argv[arg] + 9;
      if (g_tenant.empty()) return usage();
    } else {
      return usage();
    }
    ++arg;
  }
  if (arg >= argc) return usage();
  if (!g_tenant.empty() && g_connect.empty()) return usage();
  if (!g_connect.empty()) {
    return run_remote(metrics_mode, argc - arg, argv + arg);
  }
  const std::string cmd = argv[arg];
  int rc;
  if (cmd == "generate") {
    rc = cmd_generate(argc - arg - 1, argv + arg + 1);
  } else if (cmd == "segment") {
    rc = cmd_segment();
  } else if (cmd == "query") {
    rc = cmd_query(argc - arg - 1, argv + arg + 1);
  } else if (cmd == "ask") {
    rc = cmd_ask(argc - arg - 1, argv + arg + 1);
  } else {
    return usage();
  }
  if (metrics_mode != nullptr && rc == 0) {
    if (std::strcmp(metrics_mode, "json") == 0) {
      std::fputs(obs::render_json().c_str(), stdout);
    } else {
      std::fputs(obs::render_text().c_str(), stdout);
    }
  }
  return rc;
}
