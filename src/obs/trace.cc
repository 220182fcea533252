#include "obs/trace.h"

#include <array>

namespace ibseg {
namespace obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kAnalyze: return "analyze";
    case Stage::kSegment: return "segment";
    case Stage::kGroup: return "group";
    case Stage::kClusterAssign: return "cluster-assign";
    case Stage::kIndexPublish: return "index-publish";
    case Stage::kTermWeight: return "term-weight";
    case Stage::kScore: return "score";
    case Stage::kTopK: return "top-k";
  }
  return "?";
}

namespace {

std::array<Histogram*, kNumStages> make_stage_histograms() {
  std::array<Histogram*, kNumStages> histograms{};
  for (int i = 0; i < kNumStages; ++i) {
    histograms[static_cast<size_t>(i)] = &MetricsRegistry::global().histogram(
        "ibseg_stage_seconds",
        "Wall time attributed to each pipeline stage, in seconds.",
        {{"stage", stage_name(static_cast<Stage>(i))}});
  }
  return histograms;
}

}  // namespace

Histogram& stage_histogram(Stage stage) {
  // Registering all stages on first use (thread-safe static init) keeps
  // the exposition complete — an idle stage shows an all-zero histogram
  // rather than being absent.
  static const std::array<Histogram*, kNumStages> histograms =
      make_stage_histograms();
  return *histograms[static_cast<size_t>(static_cast<int>(stage))];
}

}  // namespace obs
}  // namespace ibseg
