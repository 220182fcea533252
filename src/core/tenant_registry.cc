#include "core/tenant_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace ibseg {

bool TenantRegistry::valid_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameBytes) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string TenantRegistry::tenant_dir(const std::string& root,
                                       const std::string& name) {
  if (root.empty()) return "";
  return root + "/tenant-" + name;
}

std::unique_ptr<TenantRegistry> TenantRegistry::open(
    const TenantRegistryOptions& options, std::vector<std::string> names,
    const SeedProvider& seed) {
  names.push_back(kDefaultTenant);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    if (!valid_name(name)) return nullptr;
  }

  std::unique_ptr<TenantRegistry> reg(new TenantRegistry());

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  for (const std::string& name : names) {
    Tenant t;
    t.dir = tenant_dir(options.state_root, name);

    ServingOptions serving = options.serving;
    serving.tenant = name;
    serving.persist.shard_dir = t.dir;

    bool restorable =
        !t.dir.empty() &&
        std::filesystem::exists(std::filesystem::path(t.dir) / "MANIFEST");
    if (restorable) {
      t.serving = ShardedServing::restore(t.dir, options.pipeline, serving);
    } else {
      std::vector<Document> docs;
      if (seed) docs = seed(name);
      if (docs.empty()) return nullptr;  // the offline phase needs a corpus
      t.serving =
          ShardedServing::create(std::move(docs), options.pipeline, serving);
    }
    if (t.serving == nullptr) return nullptr;

    t.queries = &metrics.counter(
        "ibseg_tenant_queries_total",
        "Requests executed on this tenant's corpus.", {{"tenant", name}});
    reg->tenants_.emplace(name, std::move(t));
  }
  return reg;
}

ShardedServing* TenantRegistry::find(const std::string& name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.serving.get();
}

std::string TenantRegistry::state_dir(const std::string& name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? "" : it->second.dir;
}

std::vector<std::string> TenantRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(name);
  return out;  // std::map iterates sorted
}

bool TenantRegistry::save(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end() || it->second.dir.empty()) return false;
  return it->second.serving->save(it->second.dir);
}

bool TenantRegistry::save_all() {
  bool all_ok = true;
  for (const auto& [name, tenant] : tenants_) {
    if (tenant.dir.empty()) continue;  // persistence off for this registry
    if (!save(name)) all_ok = false;
  }
  return all_ok;
}

void TenantRegistry::count_query(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) it->second.queries->inc();
}

}  // namespace ibseg
