// Multi-tenant fairness under mixed load: one "heavy" tenant saturating
// the server with many closed-loop clients next to one "light" tenant
// issuing the occasional query — the noisy-neighbor scenario the
// per-tenant admission cap and the deficit-round-robin dispatcher
// (docs/ARCHITECTURE.md §11) exist to contain.
//
// Two phases over the same registry-mode net::Server:
//   solo   — the light tenant runs alone; its latencies are the baseline.
//   mixed  — the heavy tenant's clients flood their namespace while the
//            light tenant repeats the solo workload unchanged.
//
// The STARVATION GATE asserts the light tenant's mixed-phase p99 stays
// within a documented multiple of its solo p99 (plus a small absolute
// slack for scheduler noise): without fair dispatch the heavy tenant's
// queue depth would be the light tenant's queue depth and the ratio
// explodes. A violation prints GATE FAILED and exits non-zero, failing
// scripts/reproduce.sh (same contract as bench/drift_over_time and
// bench/graded_eval). Results land in BENCH_tenant_fairness.json;
// reproduce.sh checks the schema. IBSEG_BENCH_SCALE scales the corpora,
// IBSEG_QPS_WINDOW_MS the measurement window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/tenant_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace ibseg {
namespace {

constexpr const char* kHeavy = "heavy";
constexpr const char* kLight = "light";
constexpr int kHeavyClients = 8;
constexpr int kLightClients = 2;
// The documented bound (docs/ARCHITECTURE.md §11): mixed-phase light p99
// may grow to the fair share's queueing delay but not to the heavy
// tenant's backlog. Calibrated against the DRR dispatcher; the absolute
// slack absorbs scheduler noise on loaded CI hosts.
constexpr double kP99Multiple = 8.0;
constexpr double kP99SlackMs = 25.0;

struct TenantRow {
  std::string tenant;
  std::string phase;
  int clients = 0;
  bench::ClientWindow window;
};

/// One closed-loop client: TENANT_OPEN once, then send-QUERY /
/// wait-for-RELATED until the window closes. Overload/timeout rejections
/// count as errors, not latencies — under admission control a rejected
/// request IS the latency story, and hiding it in the percentile would
/// flatter the gate.
void client_loop(uint16_t port, const std::string& tenant, size_t num_docs,
                 uint64_t seed, const std::atomic<bool>& go,
                 const std::atomic<bool>& stop, std::vector<double>* out_ms,
                 uint64_t* out_errors) {
  std::unique_ptr<net::Client> client =
      net::Client::connect("127.0.0.1", port);
  if (client == nullptr) {
    ++*out_errors;
    return;
  }
  net::TenantOpenedResponse opened;
  if (!client->tenant_open(tenant, &opened).ok()) {
    ++*out_errors;
    return;
  }
  Rng rng(seed);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!stop.load(std::memory_order_acquire)) {
    const DocId doc = static_cast<DocId>(rng.next_below(num_docs));
    net::RelatedResponse related;
    Stopwatch one;
    if (client->query(doc, 5, &related).ok()) {
      out_ms->push_back(one.elapsed_seconds() * 1000.0);
    } else {
      ++*out_errors;
    }
  }
}

/// Runs one phase: `spec` is (tenant, client count) pairs, all clients
/// run concurrently for the window. Returns one row per tenant.
std::vector<TenantRow> run_phase(
    uint16_t port, const std::string& phase,
    const std::vector<std::pair<std::string, int>>& spec,
    const std::vector<std::pair<std::string, size_t>>& corpus_sizes,
    int window) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  struct TenantClients {
    std::string tenant;
    int clients;
    std::vector<std::vector<double>> latencies;
    std::vector<uint64_t> errors;
  };
  std::vector<TenantClients> groups;
  for (const auto& [tenant, clients] : spec) {
    TenantClients g;
    g.tenant = tenant;
    g.clients = clients;
    g.latencies.resize(static_cast<size_t>(clients));
    g.errors.resize(static_cast<size_t>(clients), 0);
    groups.push_back(std::move(g));
  }

  std::vector<std::thread> threads;
  uint64_t seed = 5000;
  for (TenantClients& g : groups) {
    size_t num_docs = 0;
    for (const auto& [tenant, size] : corpus_sizes) {
      if (tenant == g.tenant) num_docs = size;
    }
    for (int t = 0; t < g.clients; ++t) {
      threads.emplace_back(client_loop, port, g.tenant, num_docs, seed++,
                           std::cref(go), std::cref(stop),
                           &g.latencies[static_cast<size_t>(t)],
                           &g.errors[static_cast<size_t>(t)]);
    }
  }

  Stopwatch watch;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(window));
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const double elapsed = watch.elapsed_seconds();

  std::vector<TenantRow> rows;
  for (const TenantClients& g : groups) {
    rows.push_back({g.tenant, phase, g.clients,
                    bench::summarize_clients(g.latencies, g.errors, elapsed)});
  }
  return rows;
}

}  // namespace
}  // namespace ibseg

int main() {
  using namespace ibseg;
  using namespace ibseg::bench;

  // Two seeded tenants plus the implicit default; no persistence (the
  // fairness story is pure scheduling).
  const size_t corpus_size = static_cast<size_t>(160 * bench_scale());
  TenantRegistryOptions registry_options;
  registry_options.serving.num_shards = 2;
  std::unique_ptr<TenantRegistry> tenants = TenantRegistry::open(
      registry_options, {kHeavy, kLight},
      [corpus_size](const std::string& name) {
        // Distinct seeds per tenant — isolation means nothing if every
        // namespace serves the same corpus.
        uint64_t seed = name == kHeavy ? 71 : (name == kLight ? 72 : 73);
        GeneratorOptions gen =
            eval_profile(ForumDomain::kTechSupport, corpus_size);
        gen.seed = seed;
        return analyze_corpus(generate_corpus(gen));
      });
  if (tenants == nullptr) {
    std::fprintf(stderr, "tenant_fairness_qps: registry open failed\n");
    return 1;
  }

  net::ServerOptions options;
  options.port = 0;
  options.num_workers = 2;  // scarce workers — contention is the point
  options.max_in_flight = 64;
  // The fairness levers under test: a per-tenant admission cap well below
  // the global one, and DRR dispatch at the default quantum.
  options.tenant_max_in_flight = 8;
  net::Server server(tenants.get(), options);
  if (!server.start()) {
    std::fprintf(stderr, "tenant_fairness_qps: server start failed\n");
    return 1;
  }

  const std::vector<std::pair<std::string, size_t>> corpus_sizes = {
      {kHeavy, tenants->find(kHeavy)->num_docs()},
      {kLight, tenants->find(kLight)->num_docs()}};

  const int window = window_ms(1200);
  std::vector<TenantRow> rows =
      run_phase(server.port(), "solo", {{kLight, kLightClients}},
                corpus_sizes, window);
  std::vector<TenantRow> mixed = run_phase(
      server.port(), "mixed",
      {{kHeavy, kHeavyClients}, {kLight, kLightClients}}, corpus_sizes,
      window);
  rows.insert(rows.end(), mixed.begin(), mixed.end());
  server.drain();

  TablePrinter table({"tenant", "phase", "clients", "queries/sec", "p50 ms",
                      "p95 ms", "p99 ms", "errors"});
  for (const TenantRow& row : rows) {
    table.add_row({row.tenant, row.phase, std::to_string(row.clients),
                   str_format("%.1f", row.window.qps),
                   str_format("%.3f", row.window.p50_ms),
                   str_format("%.3f", row.window.p95_ms),
                   str_format("%.3f", row.window.p99_ms),
                   std::to_string(row.window.errors)});
  }
  std::printf(
      "tenant_fairness_qps: closed-loop mixed-tenant load over loopback"
      " TCP (%d heavy / %d light clients, per-tenant cap %zu)\n",
      kHeavyClients, kLightClients, options.tenant_max_in_flight);
  table.print(std::cout);

  double light_solo_p99 = 0.0;
  double light_mixed_p99 = 0.0;
  uint64_t light_mixed_queries = 0;
  for (const TenantRow& row : rows) {
    if (row.tenant != kLight) continue;
    if (row.phase == "solo") light_solo_p99 = row.window.p99_ms;
    if (row.phase == "mixed") {
      light_mixed_p99 = row.window.p99_ms;
      light_mixed_queries = row.window.queries;
    }
  }
  const double bound_ms = kP99Multiple * light_solo_p99 + kP99SlackMs;
  const bool starved = light_mixed_queries == 0;
  const bool pass = !starved && light_mixed_p99 <= bound_ms;

  BenchJson json("tenant_fairness");
  json.put("window_ms", window);
  json.put("heavy_clients", kHeavyClients);
  json.put("light_clients", kLightClients);
  json.put("tenant_max_in_flight", options.tenant_max_in_flight);
  json.array("tenants", [&] {
    for (const TenantRow& row : rows) {
      json.element([&] {
        json.put("tenant", row.tenant);
        json.put("phase", row.phase);
        json.put("clients", row.clients);
        json.put(row.window);
      });
    }
  });
  json.object("gate", [&] {
    json.put("light_solo_p99_ms", light_solo_p99);
    json.put("light_mixed_p99_ms", light_mixed_p99);
    json.put("bound_ms", bound_ms);
    json.put("pass", pass);
  });
  json.write();

  if (!pass) {
    std::fprintf(stderr,
                 "GATE FAILED: light tenant %s under mixed load (solo p99"
                 " %.3f ms, mixed p99 %.3f ms, bound %.1f x solo + %.0f ms"
                 " = %.3f ms)\n",
                 starved ? "completed zero queries" : "p99 over bound",
                 light_solo_p99, light_mixed_p99, kP99Multiple, kP99SlackMs,
                 bound_ms);
    return 1;
  }
  std::printf("GATE PASSED: light p99 %.3f ms <= %.3f ms under mixed"
              " load\n",
              light_mixed_p99, bound_ms);
  return 0;
}
