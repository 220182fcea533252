// Tests of the benchmark's own arithmetic: percentile selection and its
// sample minimum, open-loop accounting, self time from nested spans,
// precision@k, and seeded input generation. run.py runs this before every
// benchmark run; a failure stops the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  using servebench::min_samples_for;
  using servebench::percentile;
  expect(min_samples_for(990) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(950) == 200, "p95 needs 200 samples");
  expect(min_samples_for(500) == 20, "p50 needs 20 samples");
  expect(!percentile(one_to(999), 990).has_value(), "p99 of 999 is an error");
  expect(percentile(one_to(1000), 990).value_or(0) == 990.0,
         "p99 of 1..1000 is 990 (nearest rank)");
  expect(percentile(one_to(1001), 990).value_or(0) == 991.0,
         "p99 of 1..1001 is 991");
  expect(!percentile(one_to(199), 950).has_value(), "p95 of 199 is an error");
  expect(percentile(one_to(200), 950).value_or(0) == 190.0,
         "p95 of 1..200 is 190");
  expect(percentile(one_to(20), 500).value_or(0) == 10.0,
         "p50 of 1..20 is 10");
  expect(!percentile(one_to(19), 500).has_value(), "p50 of 19 is an error");
  // A failed request is infinitely slow in every percentile.
  std::vector<double> v = one_to(1000);
  for (size_t i = 0; i < 11; ++i) v[i] = servebench::kFailed;
  expect(std::isinf(percentile(v, 990).value_or(0)),
         "11 failures in 1000 push p99 to infinity");
  v = one_to(1000);
  for (size_t i = 0; i < 10; ++i) v[i] = servebench::kFailed;
  expect(!std::isinf(percentile(v, 990).value_or(0)),
         "10 failures in 1000 stay above p99");
  expect(servebench::median({3, 1, 2}) == 2.0, "median of three");
  expect(servebench::median({4, 1, 3, 2}) == 2.0, "lower median of four");
  expect(servebench::median({}) == 0.0, "median of nothing is 0");
}

void test_open_loop() {
  servebench::OpenLoop s{100.0, 40.0};
  expect(near(s.due(0), 100.0) && near(s.due(40), 101.0), "due times");
  expect(s.count_in(10.0) == 400, "400 due in 10 s at 40/s");
  expect(s.count_in(0.01) == 1, "one due in the first 25 ms");
  // On time: latency is the round trip, no lateness.
  expect(near(s.latency(4, 100.1 + 0.002), 0.002), "latency from due");
  expect(near(s.lateness(4, 100.1), 0.0), "sent when due: not late");
  // A stall: request 4 was sent 30 ms late and answered 5 ms later; its
  // latency counts the stall, the generator's lateness is the 30 ms.
  expect(near(s.latency(4, 100.1 + 0.035), 0.035), "stall charged to latency");
  expect(near(s.lateness(4, 100.13), 0.03), "lateness of a delayed send");
  // Sending early never counts as negative lateness.
  expect(near(s.lateness(4, 100.09), 0.0), "early is not late");
}

void test_self_time() {
  using servebench::Span;
  // root [0,10] with children [1,4] and [3,6] (overlapping) and [8,12]
  // (sticking out); grandchild [2,3] under the first child.
  std::vector<Span> spans = {
      {"root", 0, 10, -1, 1}, {"a", 1, 4, 0, 1}, {"b", 3, 6, 0, 1},
      {"c", 8, 12, 0, 1},     {"g", 2, 3, 1, 1},
  };
  std::vector<double> self = servebench::self_times(spans);
  // Children cover [1,6] and [8,10]: 7 of root's 10.
  expect(near(self[0], 3.0), "root self time excludes covered union");
  expect(near(self[1], 2.0), "child self time excludes grandchild");
  expect(near(self[2], 3.0), "leaf self time is its duration");
  expect(near(self[4], 1.0), "grandchild self time");
  std::vector<double> d = servebench::durations_us(spans, "a");
  expect(d.size() == 1 && near(d[0], 3e6), "durations by name");

  servebench::SpanRecorder rec(2);
  {
    servebench::ScopedSpan outer(&rec, "outer", 7);
    servebench::ScopedSpan inner(&rec, "inner", 7, outer.index());
    servebench::ScopedSpan dropped(&rec, "dropped", 7);
  }
  expect(rec.spans().size() == 2 && rec.dropped() == 1,
         "recorder keeps its capacity");
  expect(rec.spans()[1].parent == 0 && rec.spans()[1].end >= rec.spans()[1].start,
         "scoped spans nest and close");
}

void test_precision() {
  // Query scenario 7; results with scenarios 7, 3, 7, 7, 1 -> 3 of 5.
  std::vector<int> scenario = {7, 3, 7, 7, 1, 7};
  std::vector<uint32_t> ids = {0, 1, 2, 3, 4, 5};
  auto rel = [&](uint32_t d) { return scenario[d] == 7; };
  expect(near(servebench::precision_at(ids, 5, rel), 0.6),
         "precision@5 on a hand-built list");
  expect(near(servebench::precision_at({0, 2}, 5, rel), 0.4),
         "short lists count missing places as misses");
  expect(near(servebench::precision_at({}, 5, rel), 0.0), "empty list");
}

void test_inputs() {
  servebench::InputShape shape;
  shape.seed_posts = 300;
  shape.add_posts = 40;
  shape.ask_posts = 20;
  shape.hot_set = 16;
  shape.judge_ids = 10;
  const servebench::Inputs a = servebench::make_inputs(5, shape);
  const servebench::Inputs b = servebench::make_inputs(5, shape);
  const servebench::Inputs c = servebench::make_inputs(6, shape);
  expect(a.fingerprint() == b.fingerprint(), "same seed, same inputs");
  expect(a.seed_texts == b.seed_texts && a.hot_set == b.hot_set,
         "same seed, same texts and hot set");
  expect(a.fingerprint() != c.fingerprint(), "other seed, other inputs");
  expect(a.seed_texts.size() == 300 && a.add_texts.size() == 40 &&
             a.ask_texts.size() == 20,
         "corpus and held-out sizes");
  std::vector<uint32_t> hot = a.hot_set;
  std::sort(hot.begin(), hot.end());
  expect(hot.size() == 16 &&
             std::adjacent_find(hot.begin(), hot.end()) == hot.end() &&
             hot.back() < 300,
         "hot set is distinct seed ids");
  servebench::Rng r1(9), r2(9);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && r1.next() == r2.next();
  expect(same, "rng is deterministic");
}

void test_sample_buffer() {
  servebench::SampleBuffer buf(3);
  for (int i = 0; i < 4; ++i) buf.add(i);
  expect(buf.size() == 3 && buf.overflowed(), "buffer capacity is fixed");
  expect(buf.values() == std::vector<double>({0, 1, 2}), "buffer values");
}

}  // namespace

int main() {
  test_percentiles();
  test_open_loop();
  test_self_time();
  test_precision();
  test_inputs();
  test_sample_buffer();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
