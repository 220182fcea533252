#include "index/collection_stats.h"

#include <utility>

namespace ibseg {

UnitLexStats compute_unit_lex_stats(const TermVector& terms) {
  UnitLexStats stats;
  for (const auto& [term, tf] : terms.entries()) {
    if (tf <= 0.0) continue;
    stats.log_tf_sum += std::log(tf) + 1.0;
    stats.length += tf;
    ++stats.unique_terms;
  }
  return stats;
}

GlobalIndexStats::GlobalIndexStats(int num_clusters, double min_norm_fraction)
    : accums_(static_cast<size_t>(num_clusters > 0 ? num_clusters : 0)),
      views_(accums_.size()),
      min_norm_fraction_(min_norm_fraction) {
  for (auto& v : views_) v = std::make_shared<ClusterCollectionStats>();
}

void GlobalIndexStats::append(int cluster, const TermVector& terms,
                              bool refresh_now) {
  if (cluster < 0 || static_cast<size_t>(cluster) >= accums_.size()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ClusterAccum& acc = accums_[static_cast<size_t>(cluster)];
    for (const auto& [term, tf] : terms.entries()) {
      if (tf <= 0.0) continue;
      ++acc.df[term];
      acc.collection_tf[term] += tf;
      acc.collection_length += tf;
    }
    acc.units.push_back(compute_unit_lex_stats(terms));
  }
  if (refresh_now) refresh(cluster);
}

void GlobalIndexStats::refresh(int cluster) {
  if (cluster < 0 || static_cast<size_t>(cluster) >= accums_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const ClusterAccum& acc = accums_[static_cast<size_t>(cluster)];
  auto view = std::make_shared<ClusterCollectionStats>();
  view->num_units = acc.units.size();
  view->df = acc.df;
  view->collection_tf = acc.collection_tf;
  view->collection_length = acc.collection_length;
  // The averages come from sums of integer-valued doubles (exact,
  // order-independent), the norm floor from a serial sweep over pre-floor
  // norms in unit order (order-sensitive — this vector IS the board
  // order).
  double total_unique = 0.0;
  for (const UnitLexStats& s : acc.units) total_unique += s.unique_terms;
  view->avg_unique_terms =
      acc.units.empty()
          ? 0.0
          : total_unique / static_cast<double>(acc.units.size());
  double length_sum = 0.0;
  for (const UnitLexStats& s : acc.units) length_sum += s.length;
  view->avg_unit_length =
      acc.units.empty() ? 0.0
                        : length_sum / static_cast<double>(acc.units.size());
  double norm_sum = 0.0;
  for (const UnitLexStats& s : acc.units) {
    norm_sum += pre_floor_unit_norm(s.log_tf_sum, s.unique_terms,
                                    view->avg_unique_terms);
  }
  view->norm_floor =
      (!acc.units.empty() && min_norm_fraction_ > 0.0)
          ? min_norm_fraction_ * norm_sum /
                static_cast<double>(acc.units.size())
          : 0.0;
  views_[static_cast<size_t>(cluster)] = std::move(view);
}

std::shared_ptr<const ClusterCollectionStats> GlobalIndexStats::cluster(
    int c) const {
  if (c < 0 || static_cast<size_t>(c) >= views_.size()) {
    static const std::shared_ptr<const ClusterCollectionStats> kEmpty =
        std::make_shared<ClusterCollectionStats>();
    return kEmpty;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return views_[static_cast<size_t>(c)];
}

size_t GlobalIndexStats::total_units() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const ClusterAccum& acc : accums_) n += acc.units.size();
  return n;
}

}  // namespace ibseg
