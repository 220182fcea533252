// Tests for the serving benches' measurement harness (bench/harness.h):
// the rotating-rounds order, the nearest-rank client latency summary, the
// window knob, and the JSON emitter's stamp, nesting, escaping and
// non-finite numbers. reproduce.sh parses the emitter's files as JSON,
// so its exact text is pinned here.

#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "temp_dir.h"

namespace ibseg {
namespace bench {
namespace {

/// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(BenchHarness, RotatingRoundsStartRoundRAtArmRModN) {
  std::vector<size_t> order;
  const auto samples = rotating_rounds(3, 4, [&](size_t arm) {
    order.push_back(arm);
    return static_cast<double>(order.size());
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2}));
  // samples[arm][round] holds the value that arm measured in that round.
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0], (std::vector<double>{1, 6, 8, 10}));
  EXPECT_EQ(samples[1], (std::vector<double>{2, 4, 9, 11}));
  EXPECT_EQ(samples[2], (std::vector<double>{3, 5, 7, 12}));

  const Spread s = spread_of(samples[0]);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.q1, 4.75);
  EXPECT_DOUBLE_EQ(s.q3, 8.5);
  EXPECT_EQ(spread_text(s, 2), "7.00 [4.75, 8.50]");
}

TEST(BenchHarness, ClientSummaryMergesThreadsAndTakesNearestRank) {
  // 100 samples 1..100 ms spread unevenly over three client threads.
  std::vector<std::vector<double>> latencies(3);
  for (int v = 100; v >= 1; --v) {
    latencies[static_cast<size_t>(v) % 3].push_back(static_cast<double>(v));
  }
  const ClientWindow w = summarize_clients(latencies, {1, 0, 2}, 4.0);
  EXPECT_EQ(w.queries, 100u);
  EXPECT_EQ(w.errors, 3u);
  EXPECT_DOUBLE_EQ(w.qps, 25.0);
  // The sample at index floor(q * count) of the sorted merge.
  EXPECT_DOUBLE_EQ(w.p50_ms, 51.0);
  EXPECT_DOUBLE_EQ(w.p95_ms, 96.0);
  EXPECT_DOUBLE_EQ(w.p99_ms, 100.0);

  // One sample: every percentile clamps to it.
  const ClientWindow one =
      summarize_clients(std::vector<std::vector<double>>{{7.5}}, {}, 1.0);
  EXPECT_DOUBLE_EQ(one.p50_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p99_ms, 7.5);

  // No samples and no time: zeros, not a division by zero.
  const ClientWindow none = summarize_clients(
      std::vector<std::vector<double>>(2), {0, 4}, 0.0);
  EXPECT_EQ(none.queries, 0u);
  EXPECT_EQ(none.errors, 4u);
  EXPECT_DOUBLE_EQ(none.qps, 0.0);
  EXPECT_DOUBLE_EQ(none.p99_ms, 0.0);
}

TEST(BenchHarness, WindowKnobOverridesOnlyWithAPositiveInteger) {
  {
    ScopedEnv env("IBSEG_QPS_WINDOW_MS", nullptr);
    EXPECT_EQ(window_ms(1500), 1500);
  }
  {
    ScopedEnv env("IBSEG_QPS_WINDOW_MS", "250");
    EXPECT_EQ(window_ms(1500), 250);
    EXPECT_EQ(window_ms(600), 250);
  }
  for (const char* bad : {"0", "-5", "abc", ""}) {
    ScopedEnv env("IBSEG_QPS_WINDOW_MS", bad);
    EXPECT_EQ(window_ms(1200), 1200) << "'" << bad << "'";
  }
}

TEST(BenchHarness, JsonEmitterWritesStampNestingAndEscapes) {
  ScopedEnv scale("IBSEG_BENCH_SCALE", "2.5");
  const std::filesystem::path dir = fresh_temp_dir("bench_json");
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);

  BenchJson json("harness_test");
  json.put("label", "a \"quoted\\\" one\nline");
  json.put("ok", true);
  json.put("count", uint64_t{42});
  json.put("ratio", 0.25);
  json.put("nan", std::numeric_limits<double>::quiet_NaN());
  json.put("inf", std::numeric_limits<double>::infinity());
  json.put("dip", Spread{0.5, 0.25, 0.75});
  json.object("window", [&] {
    ClientWindow w;
    w.queries = 3;
    w.qps = 1.5;
    w.p50_ms = 2.0;
    json.put(w);
  });
  json.array("rows", [&] {
    json.element([&] { json.put("n", 1); });
    json.element([&] { json.put("n", 2); });
  });
  json.array("empty", [] {});
  const bool wrote = json.write();

  std::ifstream in(dir / "BENCH_harness_test.json");
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::current_path(cwd);
  ASSERT_TRUE(wrote);

  const std::string expected =
      "{\n"
      "  \"bench\": \"harness_test\",\n"
      "  \"scale\": 2.5,\n"
      "  \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n"
      "  \"label\": \"a \\\"quoted\\\\\\\" one\\u000aline\",\n"
      "  \"ok\": true,\n"
      "  \"count\": 42,\n"
      "  \"ratio\": 0.25,\n"
      "  \"nan\": null,\n"
      "  \"inf\": null,\n"
      "  \"dip\": 0.5,\n"
      "  \"dip_q1\": 0.25,\n"
      "  \"dip_q3\": 0.75,\n"
      "  \"window\": {\n"
      "    \"qps\": 1.5,\n"
      "    \"queries\": 3,\n"
      "    \"errors\": 0,\n"
      "    \"p50_ms\": 2,\n"
      "    \"p95_ms\": 0,\n"
      "    \"p99_ms\": 0\n"
      "  },\n"
      "  \"rows\": [\n"
      "    {\n"
      "      \"n\": 1\n"
      "    },\n"
      "    {\n"
      "      \"n\": 2\n"
      "    }\n"
      "  ],\n"
      "  \"empty\": [\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(text.str(), expected);
}

}  // namespace
}  // namespace bench
}  // namespace ibseg
