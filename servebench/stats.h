#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

// The benchmark's own arithmetic: percentile selection with a minimum-tail
// rule, open-loop accounting, precision@k, and a sample buffer whose
// memory does not depend on how fast the program under test is.
// servebench_selftest checks every function here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace servebench {

/// Latency of a request that failed or was refused: slower than any limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Fewest samples a percentile needs: at least ten at or beyond its rank.
/// `per_mille` is the percentile in thousandths (500 = p50, 990 = p99).
inline uint64_t min_samples_for(int per_mille) {
  const uint64_t tail = 1000 - static_cast<uint64_t>(per_mille);
  return (10 * 1000 + tail - 1) / tail;
}

/// Nearest-rank percentile: the smallest sample with at least per_mille/1000
/// of all samples at or below it. Empty when fewer than min_samples_for()
/// samples exist — a run that lacks them reports an error, not a number.
inline std::optional<double> percentile(std::vector<double> samples,
                                        int per_mille) {
  const uint64_t n = samples.size();
  if (per_mille <= 0 || per_mille >= 1000 || n < min_samples_for(per_mille)) {
    return std::nullopt;
  }
  const uint64_t rank = (static_cast<uint64_t>(per_mille) * n + 999) / 1000;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median with no sample minimum, for per-layer timings and repeated
/// set-up phases (lower median for even counts). 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Open-loop schedule: request i is due at start + i / rate. A request is
/// timed from its due time, so a stall also charges the requests queued
/// behind it; lateness is how far the generator itself ran behind.
struct OpenLoop {
  double start = 0.0;  ///< seconds on the benchmark clock
  double rate = 1.0;   ///< requests per second

  double due(uint64_t i) const {
    return start + static_cast<double>(i) / rate;
  }
  /// Requests due inside a window of `seconds` (i / rate < seconds).
  uint64_t count_in(double seconds) const {
    return static_cast<uint64_t>(std::ceil(seconds * rate));
  }
  double latency(uint64_t i, double done) const { return done - due(i); }
  double lateness(uint64_t i, double sent) const {
    return std::max(0.0, sent - due(i));
  }
};

/// Share of the first k returned ids judged relevant, over k (a short list
/// counts its missing places as misses).
template <typename Relevant>
double precision_at(const std::vector<uint32_t>& ids, int k,
                    Relevant&& relevant) {
  if (k <= 0) return 0.0;
  int hits = 0;
  for (int i = 0; i < k && i < static_cast<int>(ids.size()); ++i) {
    if (relevant(ids[static_cast<size_t>(i)])) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

/// Fixed-capacity latency store. Its memory is allocated and touched up
/// front, so the resident set does not grow with the number of requests a
/// faster program completes. Recording past capacity sets overflowed().
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) : data_(capacity, 0.0f) {}

  void add(double value) {
    if (size_ < data_.size()) {
      data_[size_++] = static_cast<float>(value);
    } else {
      overflowed_ = true;
    }
  }
  size_t size() const { return size_; }
  bool overflowed() const { return overflowed_; }
  std::vector<double> values() const {
    return std::vector<double>(data_.begin(), data_.begin() + size_);
  }

 private:
  std::vector<float> data_;
  size_t size_ = 0;
  bool overflowed_ = false;
};

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
