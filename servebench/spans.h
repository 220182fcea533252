#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

// Benchmark-side spans: one per client request and one around each public
// call the in-process replay makes into a module. Spans live in a
// fixed-capacity buffer per recording thread and are written out as JSON
// lines when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal naming the layer call
  double start = 0.0;     ///< seconds on the steady clock
  double end = 0.0;
  int32_t parent = -1;    ///< index in the same recorder; -1 = root
  uint64_t request = 0;   ///< request id shared by a request's spans
};

/// Records spans of one thread. Capacity is fixed up front; spans past it
/// are counted in dropped() instead of stored.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its index, or -1 when the buffer is full.
  int32_t open(const char* name, uint64_t request, int32_t parent = -1) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, now_s(), 0.0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void close(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end = now_s();
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
             int32_t parent = -1)
      : rec_(rec), index_(rec != nullptr ? rec->open(name, request, parent)
                                         : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children are counted
/// once, and child time outside the parent is ignored).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = lo;  // end of the covered prefix so far
    for (auto [b, e] : iv) {
      b = std::max(b, reach);
      e = std::min(e, hi);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

/// Durations, in microseconds, of every span named `name`.
inline std::vector<double> durations_us(const std::vector<Span>& spans,
                                        const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back((s.end - s.start) * 1e6);
  }
  return out;
}

/// Writes spans as JSON lines (times in microseconds from `origin`).
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans, double origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
