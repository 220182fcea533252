#ifndef IBSEG_CORE_TENANT_REGISTRY_H_
#define IBSEG_CORE_TENANT_REGISTRY_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "obs/metrics.h"

/// \file
/// TenantRegistry: N fully isolated ShardedServing corpora (one per forum
/// / tenant) behind one process (docs/ARCHITECTURE.md §11). Each tenant
/// owns its documents, vocabulary, statistics board, query cache,
/// snapshots, ingest log and offline generation; tenants share only the
/// process-wide metrics registry (where every per-instance series carries
/// a `tenant` label) and the threads that call them. The network front-end
/// (net/server.h) routes connection-bound requests here.

namespace ibseg {

/// Configuration of a multi-tenant deployment. `serving` is a template:
/// the registry stamps the per-tenant fields (tenant label, persist
/// directory) onto a copy for each tenant, so cache
/// capacity / shard count / recluster policy apply uniformly.
struct TenantRegistryOptions {
  /// Root of the durable state tree. Each tenant persists under
  /// `<state_root>/tenant-<name>/` (its own snapshots + log + MANIFEST —
  /// there is no cross-tenant commit point, by design: tenants are
  /// independent failure domains). Empty disables persistence for every
  /// tenant.
  std::string state_root;
  /// Offline/build configuration shared by all tenants.
  PipelineOptions pipeline;
  /// Per-tenant serving template (see above).
  ServingOptions serving;
};

/// Owns the tenant set. The set is fixed at open() — lookups after that
/// are lock-free and safe from any thread, which is what lets the
/// server's I/O thread resolve tenants without a registry mutex. Every
/// registry always contains the default tenant `"default"`: a connection
/// that never sends TENANT_OPEN operates on it, which is how pre-tenant
/// clients keep working byte-identically.
class TenantRegistry {
 public:
  /// Name of the implicit tenant every registry contains.
  static constexpr const char* kDefaultTenant = "default";
  /// Upper bound on tenant-name length, matched by the wire limit
  /// (net/frame.h kMaxTenantNameBytes — server.cc asserts they agree).
  static constexpr size_t kMaxNameBytes = 128;

  /// A tenant name must be usable verbatim as a directory component and a
  /// metric label: 1..kMaxNameBytes bytes of [A-Za-z0-9_-] only (no '/',
  /// no '.', so no traversal and no hidden files).
  static bool valid_name(const std::string& name);

  /// `<root>/tenant-<name>` — the tenant's durable state directory
  /// (empty when root is empty).
  static std::string tenant_dir(const std::string& root,
                                const std::string& name);

  /// Seed corpus factory, called once per tenant that has no durable
  /// state to restore. Tenants must be seeded non-empty: the offline
  /// phase needs documents to cluster.
  using SeedProvider =
      std::function<std::vector<Document>(const std::string& name)>;

  /// Opens every tenant in `names` (kDefaultTenant is added when absent;
  /// duplicates are collapsed). Per tenant: restore from
  /// tenant_dir(state_root, name) when a MANIFEST exists there, else
  /// build fresh from seed(name). Returns nullptr when any name is
  /// invalid or any tenant fails to restore/build — all-or-nothing, no
  /// partially open registry.
  static std::unique_ptr<TenantRegistry> open(
      const TenantRegistryOptions& options, std::vector<std::string> names,
      const SeedProvider& seed);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// The tenant's backend, or nullptr for an unknown name. Lock-free.
  ShardedServing* find(const std::string& name) const;

  /// Backend of kDefaultTenant (never nullptr on an open registry).
  ShardedServing* default_backend() const { return find(kDefaultTenant); }

  /// The tenant's durable state directory ("" when persistence is off or
  /// the name is unknown).
  std::string state_dir(const std::string& name) const;

  /// Tenant names in sorted order.
  std::vector<std::string> names() const;

  /// Number of tenants (>= 1: the default tenant always exists).
  size_t size() const { return tenants_.size(); }

  /// Saves one tenant into its own state directory. False when the name
  /// is unknown, persistence is off, or the save fails.
  bool save(const std::string& name);

  /// Saves every tenant; false if any save failed (all are attempted —
  /// tenants are independent failure domains).
  bool save_all();

  /// Bumps ibseg_tenant_queries_total{tenant}. Unknown names are ignored.
  void count_query(const std::string& name);

 private:
  TenantRegistry() = default;

  struct Tenant {
    std::unique_ptr<ShardedServing> serving;
    std::string dir;                   ///< "" when persistence is off
    obs::Counter* queries = nullptr;   ///< ibseg_tenant_queries_total
  };

  /// Immutable after open() — that immutability is the thread-safety
  /// contract for find()/state_dir()/names().
  std::map<std::string, Tenant> tenants_;
};

}  // namespace ibseg

#endif  // IBSEG_CORE_TENANT_REGISTRY_H_
