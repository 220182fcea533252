#ifndef IBSEG_BENCH_HARNESS_H_
#define IBSEG_BENCH_HARNESS_H_

// The measurement harness of the serving benches that write
// BENCH_<name>.json (concurrent_qps, graded_eval, obs_overhead,
// persist_restore, recluster_epoch, server_qps, sharded_qps,
// tenant_fairness_qps): the window knob, the JSON emitter, the
// in-process closed-loop fleet, the client latency summary and the
// rotating-rounds loop. scripts/reproduce.sh schema-checks every file.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_serving.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/sync.h"

namespace ibseg {
namespace bench {

/// Measurement window in ms: IBSEG_QPS_WINDOW_MS when it is a positive
/// integer, else the bench's own default.
inline int window_ms(int default_ms) {
  const char* env = std::getenv("IBSEG_QPS_WINDOW_MS");
  const int v = env == nullptr ? 0 : std::atoi(env);
  return v > 0 ? v : default_ms;
}

/// Median and quartiles of a metric's samples (quantile's interpolation).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread spread_of(const std::vector<double>& samples) {
  return {quantile(samples, 0.5), quantile(samples, 0.25),
          quantile(samples, 0.75)};
}

/// "median [q1, q3]" at `precision` decimals, for a table cell.
inline std::string spread_text(const Spread& s, int precision) {
  return str_format("%.*f [%.*f, %.*f]", precision, s.median, precision,
                    s.q1, precision, s.q3);
}

/// Runs `rounds` rounds over `arms` measured arms. Round r runs every arm
/// once, starting at arm r mod arms, so drift over the run (thermal, page
/// cache, a neighbour's load) falls on every arm alike instead of biasing
/// whichever runs first. `measure(arm)` returns one sample; the result
/// holds it at [arm][round], so callers can pair arms within a round.
template <typename Measure>
std::vector<std::vector<double>> rotating_rounds(size_t arms, size_t rounds,
                                                 Measure&& measure) {
  std::vector<std::vector<double>> samples(arms,
                                           std::vector<double>(rounds));
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < arms; ++i) {
      const size_t arm = (r + i) % arms;
      samples[arm][r] = measure(arm);
    }
  }
  return samples;
}

/// What the client threads of one closed-loop window saw: the per-thread
/// latency samples (ms, successful requests only) merged and sorted, each
/// percentile the sample at index floor(q * count), clamped to the last;
/// the per-thread error counts summed; the rate over the window.
struct ClientWindow {
  uint64_t queries = 0;
  uint64_t errors = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

inline ClientWindow summarize_clients(
    const std::vector<std::vector<double>>& latencies_ms,
    const std::vector<uint64_t>& errors, double seconds) {
  std::vector<double> all;
  for (const std::vector<double>& v : latencies_ms) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  auto at = [&](double q) {
    if (all.empty()) return 0.0;
    const auto i = static_cast<size_t>(q * static_cast<double>(all.size()));
    return all[std::min(i, all.size() - 1)];
  };
  ClientWindow w;
  w.queries = all.size();
  for (uint64_t e : errors) w.errors += e;
  w.qps = seconds > 0.0 ? static_cast<double>(w.queries) / seconds : 0.0;
  w.p50_ms = at(0.50);
  w.p95_ms = at(0.95);
  w.p99_ms = at(0.99);
  return w;
}

/// The in-process closed-loop serving mix of concurrent_qps and
/// obs_overhead. Readers issue top-5 queries back to back, one in four an
/// external post and the rest random corpus ids; writers publish posts
/// unpaced, cycling a 64-post ingest pool. One barrier releases every
/// thread, and the window is fixed.
class Fleet {
 public:
  struct Result {
    uint64_t queries = 0;
    uint64_t ingests = 0;
    double seconds = 0.0;

    double qps() const { return static_cast<double>(queries) / seconds; }
    double ingests_per_sec() const {
      return static_cast<double>(ingests) / seconds;
    }
  };

  Fleet() {
    SyntheticCorpus pool = generate_corpus(
        eval_profile(ForumDomain::kTechSupport, 64, /*seed=*/555));
    for (const GeneratedPost& post : pool.posts) {
      ingest_texts_.push_back(post.text);
    }
    for (size_t i = 0; i < 16; ++i) {
      externals_.push_back(Document::analyze(
          static_cast<DocId>((1u << 30) + i),
          pool.posts[i % pool.posts.size()].text));
    }
  }

  Result run(ShardedServing& serving, size_t readers, size_t writers,
             int window) const {
    const size_t num_docs = serving.num_docs();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> ingests{0};
    CyclicBarrier barrier(readers + writers + 1);

    ScopedThreads threads;
    for (size_t w = 0; w < writers; ++w) {
      threads.spawn([&, w] {
        barrier.arrive_and_wait();
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          // Cycle through the ingest pool; ids stay fresh automatically.
          serving.add_post(ingest_texts_[(w + i++) % ingest_texts_.size()]);
          ingests.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (size_t t = 0; t < readers; ++t) {
      threads.spawn([&, t] {
        barrier.arrive_and_wait();
        Rng rng(10 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          if (rng.next_bool(0.25)) {
            serving.find_related_external(
                externals_[rng.next_below(externals_.size())], 5);
          } else {
            serving.find_related(
                static_cast<DocId>(rng.next_below(num_docs)), 5);
          }
          queries.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    barrier.arrive_and_wait();  // release the whole fleet at once
    Stopwatch watch;
    std::this_thread::sleep_for(std::chrono::milliseconds(window));
    stop.store(true, std::memory_order_relaxed);
    threads.join_all();
    return {queries.load(), ingests.load(), watch.elapsed_seconds()};
  }

 private:
  std::vector<std::string> ingest_texts_;
  std::vector<Document> externals_;
};

/// Builds one bench's BENCH_<name>.json in the current working directory.
/// Every file opens with "bench" (the name), "scale" (bench_scale()) and
/// "hardware_threads". Entries are written in call order; the emitter
/// tracks nesting and commas, escapes strings and writes non-finite
/// numbers as null, so the file is valid JSON whatever it is given.
class BenchJson {
 public:
  explicit BenchJson(std::string name)
      : path_("BENCH_" + name + ".json"), text_("{") {
    put("bench", name);
    put("scale", bench_scale());
    put("hardware_threads", std::thread::hardware_concurrency());
  }

  void put(std::string_view key, std::string_view value) {
    begin_entry(key);
    append_string(value);
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void put(std::string_view key, T value) {
    begin_entry(key);
    if constexpr (std::is_same_v<T, bool>) {
      text_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      text_ += std::to_string(value);
    } else {
      append_number(static_cast<double>(value));
    }
  }
  /// `key` holds the median, `key`_q1 and `key`_q3 the quartiles.
  void put(std::string_view key, const Spread& spread) {
    put(key, spread.median);
    put(std::string(key) + "_q1", spread.q1);
    put(std::string(key) + "_q3", spread.q3);
  }
  void put(const ClientWindow& w) {
    put("qps", w.qps);
    put("queries", w.queries);
    put("errors", w.errors);
    put("p50_ms", w.p50_ms);
    put("p95_ms", w.p95_ms);
    put("p99_ms", w.p99_ms);
  }

  /// A nested object under `key`; `body` puts its entries.
  template <typename Body>
  void object(std::string_view key, Body&& body) {
    begin_entry(key);
    nest('{', body, '}');
  }
  /// An array under `key`; `body` appends its elements with element().
  template <typename Body>
  void array(std::string_view key, Body&& body) {
    begin_entry(key);
    nest('[', body, ']');
  }
  /// One object element of the enclosing array.
  template <typename Body>
  void element(Body&& body) {
    begin_entry({});
    nest('{', body, '}');
  }

  /// Writes the file and reports it; false (with a message on stderr)
  /// when it cannot be written.
  bool write() {
    std::ofstream out(path_);
    out << text_ << "\n}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

 private:
  /// Comma, newline and indent before an entry; then `"key": ` unless
  /// the entry is an array element (empty key).
  void begin_entry(std::string_view key) {
    if (!first_.back()) text_ += ',';
    first_.back() = false;
    text_ += '\n';
    text_.append(2 * first_.size(), ' ');
    if (!key.empty()) {
      append_string(key);
      text_ += ": ";
    }
  }

  template <typename Body>
  void nest(char open, Body& body, char close) {
    text_ += open;
    first_.push_back(true);
    body();
    first_.pop_back();
    text_ += '\n';
    text_.append(2 * first_.size(), ' ');
    text_ += close;
  }

  void append_string(std::string_view s) {
    text_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }

  /// Shortest text that reads back as the same double; null when the
  /// value has no JSON form (NaN, infinity).
  void append_number(double v) {
    if (!std::isfinite(v)) {
      text_ += "null";
      return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    text_.append(buf, res.ptr);
  }

  std::string path_;
  std::string text_;
  /// One flag per open container: no entry written into it yet.
  std::vector<bool> first_{true};
};

}  // namespace bench
}  // namespace ibseg

#endif  // IBSEG_BENCH_HARNESS_H_
