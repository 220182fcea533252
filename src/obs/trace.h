#ifndef IBSEG_OBS_TRACE_H_
#define IBSEG_OBS_TRACE_H_

#include <atomic>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace ibseg {
namespace obs {

/// \brief The named stages wall time is attributed to across the query
/// and ingest paths. One `ibseg_stage_seconds{stage=...}` histogram per
/// value in the global registry (see stage_histogram()).
enum class Stage : int {
  kAnalyze,       ///< Document::analyze: clean + tokenize + tag + CM profile
  kSegment,       ///< Segmenter::segment: intention border selection
  kGroup,         ///< offline segment grouping: IntentionClustering::build
                  ///  (DBSCAN eps grid) or its restore from a snapshot
  kClusterAssign, ///< nearest-centroid assignment of query/ingest segments
  kIndexPublish,  ///< adding units to per-cluster indices (under the
                  ///  serving write lock on the ingest path)
  kTermWeight,    ///< InvertedIndex::finalize: sealing the postings runs
                  ///  (the Eq. 7/8 norms live on the statistics board)
  kScore,         ///< score_units: Eq. 9 / BM25 / LM postings traversal
  kTopK,          ///< Algorithm 2 merge + final sort + truncate
};

/// Number of Stage values (kept in sync with the enum).
inline constexpr int kNumStages = 8;

/// \brief Stable exposition name of a stage ("analyze", "segment",
/// "group", "cluster-assign", "index-publish", "term-weight", "score",
/// "top-k").
/// \param stage the stage
const char* stage_name(Stage stage);

/// \brief The `ibseg_stage_seconds{stage=<name>}` histogram of `stage` in
/// the global registry. The first call registers all stages at once, so
/// every stage appears in the exposition even before it first runs.
/// \param stage the stage
Histogram& stage_histogram(Stage stage);

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// \brief Whether timing instrumentation is on (default: on). One relaxed
/// load; checked by TraceScope before touching the clock.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// \brief Globally enables/disables timing instrumentation. When off,
/// TraceScope skips both clock reads and the histogram write (raw
/// counters elsewhere stay on — a relaxed increment costs about as much
/// as checking the flag would). bench/obs_overhead measures the
/// enabled-vs-disabled QPS delta.
/// \param on true to record timings, false to make TraceScope a no-op
void set_enabled(bool on);

/// \brief RAII wall-time timer: reads the obs clock at construction and
/// records the elapsed seconds into a histogram at destruction (or at an
/// early stop()). When instrumentation is disabled the constructor takes
/// no clock reading and the destructor writes nothing.
///
/// Typical use — attribute a block to a named stage:
/// \code
///   { obs::TraceScope scope(obs::Stage::kScore);  ...hot work...  }
/// \endcode
/// or time up to a point (lock-wait measurement):
/// \code
///   obs::TraceScope wait(lock_wait_histogram);
///   std::unique_lock lock(mu);
///   wait.stop();
/// \endcode
class TraceScope {
 public:
  /// \brief Starts timing into the stage's `ibseg_stage_seconds`
  /// histogram.
  /// \param stage the stage the elapsed time is attributed to
  explicit TraceScope(Stage stage)
      : hist_(enabled() ? &stage_histogram(stage) : nullptr) {
    if (hist_ != nullptr) start_ = Clock::now();
  }

  /// \brief Starts timing into an arbitrary histogram.
  /// \param hist destination histogram (must outlive the scope)
  explicit TraceScope(Histogram& hist) : hist_(enabled() ? &hist : nullptr) {
    if (hist_ != nullptr) start_ = Clock::now();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() { stop(); }

  /// \brief Records the elapsed time now and disarms the scope (the
  /// destructor then does nothing). Idempotent.
  void stop() {
    if (hist_ == nullptr) return;
    hist_->observe(seconds_between(start_, Clock::now()));
    hist_ = nullptr;
  }

 private:
  Histogram* hist_;
  Clock::time_point start_{};
};

}  // namespace obs
}  // namespace ibseg

#endif  // IBSEG_OBS_TRACE_H_
