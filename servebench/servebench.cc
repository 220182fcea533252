// servebench: the served-path benchmark.
//
//   servebench --workload <query_cold|query_hot> --seed N
//              --seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR]
//
// Each run generates its inputs from the seed, stands up an in-process
// net::Server over a 2-shard ShardedServing, drives it through loopback TCP
// from its own load generator, checks the answers against in-process
// ShardedServing calls, and prints one metric per line followed by a JSON
// summary as the last line. With --trace 0 the summary carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// taken from a traced repeat of the window, an in-process replay with a
// span around each public call, and reads of the program's registry. The
// exit code is 0 only when every correctness check passed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "cluster/intention_clusters.h"
#include "core/sharded_serving.h"
#include "index/intention_matcher.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "nlp/cm_annotator.h"
#include "nlp/pos_tagger.h"
#include "obs/metrics.h"
#include "seg/document.h"
#include "seg/segmenter.h"
#include "spans.h"
#include "stats.h"
#include "storage/wal.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace fs = std::filesystem;
using ibseg::DocId;
using ibseg::ScoredDoc;
using ibseg::ShardedServing;
using servebench::now_s;

namespace {

// The id net::Server analyzes an ASK post under (src/net/server.cc); the
// in-process ASKs use it too, so they score as a served ASK would.
constexpr DocId kExternalQueryId = 1u << 30;

constexpr int kK = 5;
constexpr int kShards = 2;
constexpr int kWorkers = 2;
constexpr int kReaders = 2;  // closed-loop QUERY connections
// Repeated phases report their median (the lower one for an even count).
constexpr int kSetupReps = 3;
constexpr int kRestoreReps = 3;       // traced runs; untraced runs restore once
constexpr double kWriteRate = 40.0;   // ADD_POST per second, open loop
constexpr size_t kTailAdds = 200;     // write phase after the window
constexpr size_t kProbeAdds = 200;    // in-process add replay (traced run)
constexpr double kWarmupSeconds = 0.5;
constexpr uint64_t kSampleEvery = 50;  // every 50th timed request is checked
constexpr size_t kMaxChecked = 64;
constexpr size_t kReplayRequests = 2000;
constexpr size_t kStageSample = 400;
constexpr size_t kWalProbeRecords = 200;
// Latency slots per connection per measured second: far above what a
// loopback round trip allows, so the store never fills in practice.
constexpr size_t kSlotsPerSecond = 200000;

struct Workload {
  std::string name;
  std::string why;
  size_t cache_capacity = 0;
  bool hot = false;  ///< QUERY ids drawn from the hot set
};

std::optional<Workload> workload_named(const std::string& name) {
  if (name == "query_cold") {
    return Workload{name,
                    "every QUERY pays term resolution, scatter, MaxScore "
                    "scoring and merge; the cache is off",
                    0, false};
  }
  if (name == "query_hot") {
    return Workload{name,
                    "every timed QUERY hits the result cache, so net and "
                    "cache dominate and scoring is skipped",
                    4096, true};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- checks

int g_check_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("check %-44s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++g_check_failures;
}

bool same_results(const std::vector<ScoredDoc>& a,
                  const std::vector<ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------- op accounting

enum Op { kOpQuery, kOpAdd, kOpRecluster, kOpDrain, kNumOps };
const char* const kOpNames[kNumOps] = {"QUERY", "ADD_POST", "RECLUSTER",
                                       "DRAIN"};

struct OpCounts {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};
OpCounts g_ops[kNumOps];

bool count_op(Op op, const ibseg::net::CallResult& r) {
  g_ops[op].attempted.fetch_add(1, std::memory_order_relaxed);
  if (!r.ok()) g_ops[op].failed.fetch_add(1, std::memory_order_relaxed);
  return r.ok();
}

// ------------------------------------------------------------- phases

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// CPU time of every thread of this process. The kernel charges time the
// host gives to other machines ("steal") to no thread, so on a busy host
// CPU time per request moves far less than requests per wall-clock second;
// it still rises when other machines crowd this one's caches.
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void phase_done(const std::string& name, double wall_s, double cpu_s) {
  std::printf("phase %-12s %9.3f s wall %9.3f s cpu\n", name.c_str(), wall_s,
              cpu_s);
  std::fflush(stdout);
}

// Wall and process CPU time since the previous lap.
struct PhaseClock {
  double wall = now_s();
  double cpu = process_cpu_s();
  void lap(const std::string& name) {
    const double w = now_s();
    const double c = process_cpu_s();
    phase_done(name, w - wall, c - cpu);
    wall = w;
    cpu = c;
  }
};

// ------------------------------------------------------- registry reads

// Exact window means come from sum/count deltas: the registry's own
// percentiles are interpolated inside 1-2-5 buckets.
ibseg::obs::Histogram& hist(const std::string& name,
                            const ibseg::obs::Labels& labels = {}) {
  return ibseg::obs::MetricsRegistry::global().histogram(name, "", labels);
}
ibseg::obs::Counter& counter(const std::string& name,
                             const ibseg::obs::Labels& labels) {
  return ibseg::obs::MetricsRegistry::global().counter(name, "", labels);
}

struct Reading {
  double request_sum = 0, request_count = 0;
  double queue_sum = 0, queue_count = 0;
  double scatter_sum = 0, scatter_count = 0;
  double merge_sum = 0, merge_count = 0;
  uint64_t requests = 0, rejected = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t units_scored = 0, units_pruned = 0;
};

// Read only while no write is running: the per-shard matcher accessors
// are valid at quiescence.
Reading read_layers(const ShardedServing& backend) {
  Reading r;
  auto take = [](ibseg::obs::Histogram& h, double* sum, double* count) {
    *sum = h.sum();
    *count = static_cast<double>(h.count());
  };
  take(hist("ibseg_net_request_seconds"), &r.request_sum, &r.request_count);
  take(hist("ibseg_tenant_queue_seconds", {{"tenant", "default"}}),
       &r.queue_sum, &r.queue_count);
  take(hist("ibseg_scatter_seconds", {{"tenant", "default"}}),
       &r.scatter_sum, &r.scatter_count);
  take(hist("ibseg_merge_seconds", {{"tenant", "default"}}), &r.merge_sum,
       &r.merge_count);
  r.requests =
      counter("ibseg_net_requests_total",
              {{"cmd", ibseg::net::msg_type_name(ibseg::net::MsgType::kQuery)}})
          .value();
  for (const char* reason : {"bad_frame", "bad_request", "overloaded",
                             "draining", "timeout", "conn_limit",
                             "unknown_tenant"}) {
    r.rejected +=
        counter("ibseg_net_rejected_total", {{"reason", reason}}).value();
  }
  if (const ibseg::QueryCache* c = backend.query_cache()) {
    r.cache_hits = c->hits();
    r.cache_misses = c->misses();
    r.cache_evictions = c->evictions();
  }
  for (uint32_t s = 0; s < backend.num_shards(); ++s) {
    const auto& w = backend.shard(s).quiescent().matcher().work_counters();
    r.units_scored += w.units_scored.load();
    r.units_pruned += w.units_pruned.load();
  }
  return r;
}

double mean_us(double sum1, double count1, double sum0, double count0) {
  const double n = count1 - count0;
  return n > 0 ? (sum1 - sum0) / n * 1e6 : 0.0;
}

// ----------------------------------------------------------- deployment

struct Deployment {
  std::unique_ptr<ShardedServing> backend;
  std::unique_ptr<ibseg::net::Server> server;
  double analyze_s = 0, create_s = 0, start_s = 0;
  double cpu_s = 0;  ///< process CPU time of the whole set-up
};

ibseg::ServingOptions serving_options(const std::string& state_dir,
                                      size_t cache_capacity) {
  ibseg::ServingOptions so;
  so.num_shards = kShards;
  so.cache.capacity = cache_capacity;
  so.persist.shard_dir = state_dir;  // default WAL policy: fsync each append
  return so;
}

// From generated texts in memory to a server accepting connections.
std::optional<Deployment> set_up(const servebench::Inputs& in,
                                 const std::string& state_dir,
                                 size_t cache_capacity, bool save_on_drain) {
  Deployment d;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  std::vector<ibseg::Document> docs;
  docs.reserve(in.seed_texts.size());
  for (size_t i = 0; i < in.seed_texts.size(); ++i) {
    docs.push_back(
        ibseg::Document::analyze(static_cast<DocId>(i), in.seed_texts[i]));
  }
  const double t1 = now_s();
  d.backend = ShardedServing::create(std::move(docs), {},
                                     serving_options(state_dir, cache_capacity));
  const double t2 = now_s();
  if (d.backend == nullptr) return std::nullopt;
  ibseg::net::ServerOptions so;
  so.num_workers = kWorkers;
  if (save_on_drain) so.state_dir = state_dir;
  d.server = std::make_unique<ibseg::net::Server>(d.backend.get(), so);
  if (!d.server->start()) return std::nullopt;
  const double t3 = now_s();
  d.cpu_s = process_cpu_s() - cpu0;
  d.analyze_s = t1 - t0;
  d.create_s = t2 - t1;
  d.start_s = t3 - t2;
  return d;
}

void tear_down(Deployment& d) {
  if (d.server != nullptr) d.server->drain();
  d.server.reset();
  d.backend.reset();
}

std::unique_ptr<ibseg::net::Client> connect(uint16_t port) {
  return ibseg::net::Client::connect("127.0.0.1", port, 60.0);
}

// ------------------------------------------------------------ traffic

struct Sampled {
  uint32_t id = 0;
  ibseg::net::RelatedResponse resp;
};

// One closed-loop connection: sends its next QUERY as soon as the previous
// one is answered, until the deadline.
struct Reader {
  servebench::SampleBuffer latency_ms;
  uint64_t ok = 0;
  uint64_t failed = 0;
  double rtt_sum_s = 0;
  double cpu_s = 0;  ///< this load-generator thread's own CPU time
  double end = 0;
  bool connected = false;
  std::vector<Sampled> sampled;
  servebench::SpanRecorder* spans = nullptr;
  explicit Reader(size_t capacity) : latency_ms(capacity) {}
};

struct Traffic {
  const Workload* w = nullptr;
  const servebench::Inputs* in = nullptr;
  uint64_t seed = 0;
  uint64_t stream_salt = 0;
};

// The QUERY ids of connection `conn`: a per-connection seeded stream, so
// a replay can regenerate it.
struct KeyStream {
  servebench::Rng rng;
  const Workload* w;
  const servebench::Inputs* in;
  KeyStream(const Traffic& t, int conn)
      : rng(servebench::stream_seed(t.seed, t.stream_salt * 16 + conn + 100)),
        w(t.w),
        in(t.in) {}
  uint32_t next() {
    if (w->hot) {
      return in->hot_set[rng.below(static_cast<uint32_t>(in->hot_set.size()))];
    }
    return rng.below(static_cast<uint32_t>(in->seed_texts.size()));
  }
};

void read_loop(uint16_t port, const Traffic& t, int conn, double deadline,
               Reader* r) {
  const double cpu0 = thread_cpu_s();
  auto client = connect(port);
  if (client == nullptr) return;
  r->connected = true;
  KeyStream keys(t, conn);
  for (uint64_t i = 0; now_s() < deadline; ++i) {
    const uint32_t id = keys.next();
    ibseg::net::RelatedResponse resp;
    const int32_t sp = r->spans != nullptr
                           ? r->spans->open("client.query",
                                            (static_cast<uint64_t>(conn) << 40) | i)
                           : -1;
    const double t0 = now_s();
    ibseg::net::CallResult cr = client->query(id, kK, &resp);
    const double t1 = now_s();
    if (r->spans != nullptr) r->spans->close(sp);
    r->rtt_sum_s += t1 - t0;
    if (count_op(kOpQuery, cr)) {
      ++r->ok;
      r->latency_ms.add((t1 - t0) * 1e3);
      if (i % kSampleEvery == 0 && r->sampled.size() < kMaxChecked) {
        r->sampled.push_back({id, std::move(resp)});
      }
    } else {
      ++r->failed;
      r->latency_ms.add(servebench::kFailed);
    }
  }
  r->end = now_s();
  client.reset();
  r->cpu_s = thread_cpu_s() - cpu0;
}

// The open-loop writer: ADD_POST of held-out post i, due at
// schedule.due(i) and timed from its due time.
struct Writer {
  servebench::SampleBuffer latency_ms;
  servebench::SampleBuffer late_ms;
  uint64_t sent = 0;
  std::vector<DocId> acked;
  explicit Writer(size_t capacity) : latency_ms(capacity), late_ms(capacity) {}
};

void write_loop(uint16_t port, const servebench::Inputs& in, size_t count,
                servebench::OpenLoop schedule, Writer* w) {
  auto client = connect(port);
  for (size_t i = 0; i < count; ++i) {
    const double wait = schedule.due(i) - now_s();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double sent = now_s();
    DocId id = 0;
    ibseg::net::CallResult cr;
    if (client != nullptr) cr = client->add_post(in.add_texts[i], &id);
    const double done = now_s();
    ++w->sent;
    w->late_ms.add(schedule.lateness(i, sent) * 1e3);
    if (count_op(kOpAdd, cr)) {
      w->latency_ms.add(schedule.latency(i, done) * 1e3);
      w->acked.push_back(id);
    } else {
      w->latency_ms.add(servebench::kFailed);
    }
  }
}

// Share of this machine's CPU time the host gave to other machines (the
// "steal" column of /proc/stat) since `since`: a diagnostic printed beside
// the window, which explains a slow run.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  f >> cpu;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    f >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}
double steal_share(const CpuTicks& since) {
  const CpuTicks now = cpu_ticks();
  const double total = now.total - since.total;
  return total > 0 ? (now.steal - since.steal) / total : 0.0;
}

struct Window {
  double seconds = 0;
  uint64_t ok = 0;
  std::vector<double> latency_ms;  ///< every QUERY, failures = inf
  double client_rtt_mean_us = 0;
  double server_cpu_s = 0;  ///< process CPU time minus the readers' own
  std::vector<Sampled> sampled;
  Reading before, after;
  bool overflow = false;
  bool connected = true;
  double qps() const { return seconds > 0 ? ok / seconds : 0.0; }
  double cpu_us_per_query() const {
    return ok > 0 ? server_cpu_s / static_cast<double>(ok) * 1e6 : 0.0;
  }
};

// Runs the workload's closed-loop readers for `seconds`.
Window run_window(uint16_t port, const ShardedServing& backend,
                  const Traffic& t, double seconds,
                  std::vector<std::unique_ptr<servebench::SpanRecorder>>*
                      spans) {
  Window win;
  const size_t capacity =
      kSlotsPerSecond * static_cast<size_t>(seconds + 1.0);
  std::vector<std::unique_ptr<Reader>> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.push_back(std::make_unique<Reader>(capacity));
    if (spans != nullptr) {
      spans->push_back(std::make_unique<servebench::SpanRecorder>(capacity));
      readers.back()->spans = spans->back().get();
    }
  }
  win.before = read_layers(backend);
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back(read_loop, port, std::cref(t), c, deadline,
                         readers[static_cast<size_t>(c)].get());
  }
  for (std::thread& th : threads) th.join();
  const double cpu = process_cpu_s() - cpu0;
  double end = start;
  double rtt_sum = 0;
  double client_cpu = 0;
  uint64_t rtt_n = 0;
  for (const auto& r : readers) {
    end = std::max(end, r->end);
    win.ok += r->ok;
    win.connected = win.connected && r->connected;
    win.overflow = win.overflow || r->latency_ms.overflowed();
    std::vector<double> v = r->latency_ms.values();
    win.latency_ms.insert(win.latency_ms.end(), v.begin(), v.end());
    win.sampled.insert(win.sampled.end(), r->sampled.begin(),
                       r->sampled.end());
    rtt_sum += r->rtt_sum_s;
    rtt_n += r->ok + r->failed;
    client_cpu += r->cpu_s;
  }
  win.seconds = end - start;
  win.server_cpu_s = cpu - client_cpu;
  win.client_rtt_mean_us = rtt_n > 0 ? rtt_sum / rtt_n * 1e6 : 0.0;
  win.after = read_layers(backend);
  return win;
}

// ------------------------------------------------------------- helpers

double vm_hwm_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double dir_mib(const std::string& dir) {
  std::error_code ec;
  uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return static_cast<double>(total) / (1024.0 * 1024.0);
}

ibseg::Document external_doc(const std::string& text) {
  return ibseg::Document::analyze(kExternalQueryId, text);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// --------------------------------------------------------- layer probes

// In-process replay and probes for the traced run: a span around each
// public call into a module, on the restored backend.
struct Probe {
  std::vector<Metric>* out;
  servebench::SpanRecorder rec{1 << 20};
  uint64_t next_request = 1;

  void put(const std::string& name, double v, const std::string& unit) {
    out->push_back({name, v, unit});
  }
  double p50(const std::string& span) {
    return servebench::median(servebench::durations_us(rec.spans(), span));
  }
};

// The workload's own QUERY stream, call by call.
void replay_queries(Probe& p, ShardedServing& b, const Traffic& t) {
  std::vector<uint32_t> ids;
  KeyStream keys(t, 0);
  for (size_t i = 0; i < kReplayRequests; ++i) ids.push_back(keys.next());
  const int n = b.shard(0).quiescent().matcher().options().top_n_factor * kK;
  const ibseg::QueryCache* cache = b.query_cache();
  std::vector<double> hit_us;
  double bags = 0;
  for (uint32_t id : ids) {
    const uint64_t req = p.next_request++;
    servebench::ScopedSpan root(&p.rec, "replay.query", req);
    const uint64_t hits0 = cache != nullptr ? cache->hits() : 0;
    const double t0 = now_s();
    {
      servebench::ScopedSpan s(&p.rec, "core.find_related", req, root.index());
      b.find_related(id, kK);
    }
    if (cache != nullptr && cache->hits() > hits0) {
      hit_us.push_back((now_s() - t0) * 1e6);
    }
    std::vector<std::pair<int, ibseg::TermVector>> bagsv;
    {
      servebench::ScopedSpan s(&p.rec, "core.doc_cluster_terms", req,
                               root.index());
      bagsv = b.shard(ShardedServing::shard_of(id, b.num_shards()))
                  .doc_cluster_terms(id);
    }
    bags += static_cast<double>(bagsv.size());
    std::vector<std::shared_ptr<const ibseg::ClusterCollectionStats>> views;
    for (const auto& bag : bagsv) {
      views.push_back(b.stats_board().cluster(bag.first));
    }
    for (uint32_t s = 0; s < b.num_shards(); ++s) {
      servebench::ScopedSpan sp(&p.rec, "index.match_clusters", req,
                                root.index());
      b.shard(s).match_clusters(bagsv, id, n, views);
    }
  }
  p.put("core.find_related_p50_us", p.p50("core.find_related"), "us");
  p.put("core.terms_p50_us", p.p50("core.doc_cluster_terms"), "us");
  p.put("core.bags_per_query", ids.empty() ? 0.0 : bags / ids.size(),
        "count");
  p.put("core.cache_hit_p50_us", servebench::median(hit_us), "us");
  p.put("index.match_p50_us", p.p50("index.match_clusters"), "us");
}

void replay_asks(Probe& p, const ShardedServing& b,
                 const servebench::Inputs& in) {
  const ibseg::RelatedPostPipeline& shard0 = b.shard(0).quiescent();
  const auto& centroids = shard0.clustering().centroids();
  const ibseg::Segmenter segmenter = ibseg::Segmenter::cm_tiling();
  ibseg::Vocabulary probe_vocab;
  for (size_t i = 0; i < in.ask_texts.size(); ++i) {
    const uint64_t req = p.next_request++;
    servebench::ScopedSpan root(&p.rec, "replay.ask", req);
    ibseg::Document doc;
    {
      servebench::ScopedSpan s(&p.rec, "seg.analyze", req, root.index());
      doc = external_doc(in.ask_texts[i]);
    }
    {
      servebench::ScopedSpan s(&p.rec, "core.find_related_external", req,
                               root.index());
      b.find_related_external(doc, kK);
    }
    ibseg::Segmentation seg;
    {
      servebench::ScopedSpan s(&p.rec, "seg.segment", req, root.index());
      seg = segmenter.segment(doc, probe_vocab);
    }
    servebench::ScopedSpan s(&p.rec, "index.assign_external", req,
                             root.index());
    ibseg::IntentionMatcher::assign_external(
        doc, seg, centroids, shard0.vocab(),
        static_cast<size_t>(b.num_clusters()));
  }
  p.put("index.assign_p50_us", p.p50("index.assign_external"), "us");
}

void probe_text_stages(Probe& p, const servebench::Inputs& in) {
  std::vector<double> tok, split, tag, annotate;
  for (size_t i = 0; i < kStageSample && i < in.seed_texts.size(); ++i) {
    const std::string& text = in.seed_texts[i];
    double t0 = now_s();
    std::vector<ibseg::Token> tokens = ibseg::tokenize(text);
    double t1 = now_s();
    std::vector<ibseg::Pos> tags = ibseg::tag_tokens(tokens);
    double t2 = now_s();
    std::vector<ibseg::Sentence> sentences =
        ibseg::split_sentences(tokens, text);
    double t3 = now_s();
    std::vector<ibseg::CmProfile> profiles =
        ibseg::annotate_sentences(tokens, tags, sentences);
    double t4 = now_s();
    tok.push_back((t1 - t0) * 1e6);
    tag.push_back((t2 - t1) * 1e6);
    split.push_back((t3 - t2) * 1e6);
    annotate.push_back((t4 - t3) * 1e6);
  }
  p.put("text.tokenize_p50_us", servebench::median(tok), "us");
  p.put("text.split_p50_us", servebench::median(split), "us");
  p.put("nlp.tag_p50_us", servebench::median(tag), "us");
  p.put("nlp.annotate_p50_us", servebench::median(annotate), "us");
}

// The offline phase on the backend's current corpus cut: segmentation,
// clustering and index build timed as separate public calls, then the
// backend's own recluster over the same cut.
void probe_offline(Probe& p, ShardedServing& b) {
  // Ids follow publication order (one writer), so sorting by id restores
  // the unpartitioned document order the backend clusters in.
  std::vector<ibseg::Document> docs;
  for (uint32_t s = 0; s < b.num_shards(); ++s) {
    const auto& d = b.shard(s).quiescent().docs();
    docs.insert(docs.end(), d.begin(), d.end());
  }
  std::sort(docs.begin(), docs.end(),
            [](const ibseg::Document& x, const ibseg::Document& y) {
              return x.id() < y.id();
            });
  const ibseg::Segmenter segmenter = ibseg::Segmenter::cm_tiling();
  ibseg::Vocabulary vocab;
  std::vector<ibseg::Segmentation> segs;
  segs.reserve(docs.size());
  std::vector<double> per_doc;
  const double s0 = now_s();
  for (const ibseg::Document& d : docs) {
    const double t0 = now_s();
    segs.push_back(segmenter.segment(d, vocab));
    per_doc.push_back((now_s() - t0) * 1e6);
  }
  const double s1 = now_s();
  size_t points = 0;
  for (const ibseg::Segmentation& s : segs) points += s.num_segments();
  const ibseg::IntentionClustering clustering =
      ibseg::IntentionClustering::build(docs, segs);
  const double s2 = now_s();
  ibseg::IntentionMatcher::build(docs, clustering, vocab);
  const double s3 = now_s();
  b.recluster();
  const double s4 = now_s();
  p.put("seg.segment_s", s1 - s0, "s");
  p.put("seg.segment_p50_us", servebench::median(per_doc), "us");
  p.put("cluster.build_s", s2 - s1, "s");
  p.put("cluster.points", static_cast<double>(points), "count");
  p.put("cluster.num_clusters", clustering.num_clusters(), "count");
  p.put("index.build_s", s3 - s2, "s");
  p.put("core.recluster_self_s", (s4 - s3) - (s2 - s1), "s");
}

void probe_storage(Probe& p, ShardedServing& b, const servebench::Inputs& in,
                   const std::string& dir) {
  // IngestWal appends of the records a publication logs: a journal entry
  // (id only) and the owner shard's entry (id + text), default fsync.
  fs::create_directories(dir);
  std::vector<ibseg::WalRecord> replayed;
  auto journal = ibseg::IngestWal::open(dir + "/probe.order", {}, &replayed);
  auto wal = ibseg::IngestWal::open(dir + "/probe.wal", {}, &replayed);
  std::vector<double> append_us;
  size_t records = 0;
  if (journal != nullptr && wal != nullptr) {
    for (size_t i = 0; i < kWalProbeRecords; ++i) {
      const DocId id = static_cast<DocId>(100000 + i);
      journal->append({id, std::string()});
      const double t0 = now_s();
      wal->append({id, in.add_texts[i % in.add_texts.size()]});
      append_us.push_back((now_s() - t0) * 1e6);
      ++records;
    }
  }
  journal.reset();
  wal.reset();
  const double wal_bytes = dir_mib(dir) * 1024.0 * 1024.0;
  p.put("storage.wal_append_p50_us", servebench::median(append_us), "us");
  p.put("storage.wal_bytes_per_post", records ? wal_bytes / records : 0.0,
        "B");
  const std::string snap = dir + "/save";
  const double t0 = now_s();
  const bool saved = b.save(snap);
  const double t1 = now_s();
  check(saved, "trace: in-process save");
  p.put("storage.save_s", t1 - t0, "s");
  p.put("storage.snapshot_mib", dir_mib(snap), "MiB");
}

// In-process ADD of held-out posts: add_post timed whole, and the
// analysis and segmentation of the same text timed alone.
void probe_adds(Probe& p, ShardedServing& b, const servebench::Inputs& in,
                size_t first) {
  const ibseg::Segmenter segmenter = ibseg::Segmenter::cm_tiling();
  ibseg::Vocabulary probe_vocab;
  std::vector<double> add_us, publish_us;
  for (size_t i = 0; i < kProbeAdds; ++i) {
    const std::string& text = in.add_texts[(first + i) % in.add_texts.size()];
    const double t0 = now_s();
    ibseg::Document doc = ibseg::Document::analyze(0, text);
    segmenter.segment(doc, probe_vocab);
    const double t2 = now_s();
    b.add_post(text);
    const double t3 = now_s();
    add_us.push_back((t3 - t2) * 1e6);
    publish_us.push_back(((t3 - t2) - (t2 - t0)) * 1e6);
  }
  p.put("core.add_post_p50_us", servebench::median(add_us), "us");
  p.put("core.add_post_p95_us",
        servebench::percentile(add_us, 950).value_or(0.0), "us");
  p.put("core.publish_p50_us", servebench::median(publish_us), "us");
}

// --------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds < 1 ||
      a.work_dir.empty()) {
    return std::nullopt;
  }
  return a;
}

// JSON has no infinity: a metric made infinite by failed requests prints
// as null, in a run already marked incorrect.
std::string fmt_value(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args, const Workload& w) {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  const std::string root = args.work_dir;
  fs::remove_all(root);
  fs::create_directories(root);
  Traffic traffic{&w, nullptr, args.seed, 0};

  // Inputs. They do not depend on the run length.
  PhaseClock clock;
  const servebench::InputShape shape;
  const servebench::Inputs in = servebench::make_inputs(args.seed, shape);
  if (in.seed_texts.size() != shape.seed_posts ||
      in.add_texts.size() < kTailAdds + kProbeAdds) {
    std::fprintf(stderr, "servebench: input shape holds out more posts "
                 "than the corpus has scenarios\n");
    return 2;
  }
  traffic.in = &in;
  clock.lap("generate");
  std::printf("workload %s: posts=%zu shards=%d cache=%zu readers=%d "
              "write_rate=40/s open loop after the window k=%d "
              "fsync=every_append workers=%d nproc=%u\n"
              "  why: %s\n",
              w.name.c_str(), in.seed_texts.size(), kShards, w.cache_capacity,
              kReaders, kK, kWorkers, std::thread::hardware_concurrency(),
              w.why.c_str());
  std::printf("inputs seed=%llu posts=%zu add=%zu ask=%zu fingerprint=%016llx\n",
              static_cast<unsigned long long>(args.seed), in.seed_texts.size(),
              in.add_texts.size(), in.ask_texts.size(),
              static_cast<unsigned long long>(in.fingerprint()));

  // Set-up, several times; the last deployment serves. On query_hot the
  // first one runs with the cache off and answers the hot set in-process:
  // the reference the cached wire answers must equal.
  const CpuTicks run_ticks = cpu_ticks();
  std::vector<double> setup_wall_s;
  std::vector<double> setup_cpu_s;
  std::map<uint32_t, std::vector<ScoredDoc>> hot_reference;
  Deployment dep;
  const std::string state_dir = root + "/state";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep == kSetupReps - 1;
    const std::string dir = last ? state_dir : root + "/setup-" +
                                                   std::to_string(rep);
    const size_t cache = (w.hot && rep == 0) ? 0 : w.cache_capacity;
    std::optional<Deployment> d = set_up(in, dir, cache, last);
    if (!d) {
      std::fprintf(stderr, "servebench: set-up failed\n");
      return 2;
    }
    setup_wall_s.push_back(d->analyze_s + d->create_s + d->start_s);
    setup_cpu_s.push_back(d->cpu_s);
    std::printf("setup rep=%d analyze=%.3f create=%.3f start=%.3f s wall, "
                "%.3f s cpu\n",
                rep, d->analyze_s, d->create_s, d->start_s, d->cpu_s);
    if (w.hot && rep == 0) {
      for (uint32_t id : in.hot_set) {
        hot_reference[id] = d->backend->find_related(id, kK).results;
      }
    }
    if (last) {
      dep = std::move(*d);
    } else {
      tear_down(*d);
      fs::remove_all(dir);
    }
  }
  clock.lap("setup");
  const uint16_t port = dep.server->port();
  ShardedServing& backend = *dep.backend;

  // Warm-up, untimed: on query_hot one pass over the hot set fills the
  // cache; then every workload runs its read traffic for a short while.
  if (w.hot) {
    auto c = connect(port);
    for (uint32_t id : in.hot_set) {
      ibseg::net::RelatedResponse resp;
      count_op(kOpQuery,
               c != nullptr ? c->query(id, kK, &resp) : ibseg::net::CallResult{});
    }
  }
  {
    Traffic warm{&w, &in, args.seed, 1};
    Reader r(kSlotsPerSecond * 2);
    read_loop(port, warm, 0, now_s() + kWarmupSeconds, &r);
  }
  clock.lap("warmup");

  // The timed window, spans off.
  const CpuTicks window_ticks = cpu_ticks();
  Window win = run_window(port, backend, traffic, args.seconds, nullptr);
  const double window_steal = steal_share(window_ticks);
  clock.lap("window");
  check(win.connected, "every connection opened");
  check(!win.overflow, "latency store did not overflow");

  // Traced repeat of the same traffic, spans on (per-layer runs only).
  std::vector<std::unique_ptr<servebench::SpanRecorder>> client_spans;
  Window traced;
  if (args.trace) {
    traced = run_window(port, backend, traffic, args.seconds, &client_spans);
    clock.lap("traced");
  }

  // Precision@5 of served answers on the fixed sample, after the window.
  auto client = connect(port);
  check(client != nullptr, "post-window connection");
  if (client == nullptr) return 1;
  std::vector<double> precisions;
  bool known_ids = true;
  for (uint32_t q : in.judge_ids) {
    ibseg::net::RelatedResponse resp;
    if (!count_op(kOpQuery, client->query(q, kK, &resp))) continue;
    std::vector<uint32_t> ids;
    for (const ScoredDoc& sd : resp.results) {
      ids.push_back(sd.doc);
      known_ids = known_ids && sd.doc < in.seed_scenarios.size();
    }
    precisions.push_back(servebench::precision_at(ids, kK, [&](uint32_t d) {
      return d < in.seed_scenarios.size() &&
             in.seed_scenarios[d] == in.seed_scenarios[q];
    }));
  }
  check(known_ids, "answers name only known posts");
  check(precisions.size() == in.judge_ids.size(),
        "precision sample fully answered");

  // Wire answers equal in-process ShardedServing answers, bit for bit.
  std::vector<Sampled> sampled = win.sampled;
  sampled.insert(sampled.end(), traced.sampled.begin(), traced.sampled.end());
  bool equal = !sampled.empty();
  for (const Sampled& s : sampled) {
    const std::vector<ScoredDoc> ref =
        w.hot ? hot_reference[s.id] : backend.find_related(s.id, kK).results;
    equal = equal && same_results(s.resp.results, ref);
  }
  check(equal, "sampled wire answers == in-process (" +
                   std::to_string(sampled.size()) + ")");
  const double hit_ratio =
      w.cache_capacity > 0
          ? static_cast<double>(win.after.cache_hits - win.before.cache_hits) /
                std::max<double>(1.0, (win.after.cache_hits +
                                       win.after.cache_misses) -
                                          (win.before.cache_hits +
                                           win.before.cache_misses))
          : 0.0;
  if (w.hot) check(hit_ratio >= 0.99, "hit ratio in timed window >= 0.99");
  clock.lap("judge");

  // Write phase: the open-loop ADD_POST schedule with no reads beside it.
  Writer writer(kTailAdds);
  write_loop(port, in, kTailAdds, servebench::OpenLoop{now_s(), kWriteRate},
             &writer);
  const std::vector<DocId>& acked = writer.acked;
  clock.lap("writes");

  // The backend's document counts, read while no write runs.
  const size_t docs_before = backend.num_docs();
  check(docs_before == in.seed_texts.size() + acked.size(),
        "num_docs == seed + acknowledged adds");

  // RECLUSTER round trip.
  const double recluster_t0 = now_s();
  ibseg::net::ReclusteredResponse rec;
  check(count_op(kOpRecluster, client->recluster(&rec)), "RECLUSTER");
  const double recluster_s = now_s() - recluster_t0;
  clock.lap("recluster");
  std::printf("corpus docs=%zu clusters=%u generation=%llu\n", docs_before,
              rec.num_clusters, static_cast<unsigned long long>(rec.generation));

  // Reference answers before the drain: a fixed sample of seed posts,
  // every acknowledged add, and ASK texts.
  std::vector<DocId> ref_ids(in.judge_ids.begin(),
                             in.judge_ids.begin() +
                                 std::min<size_t>(64, in.judge_ids.size()));
  ref_ids.insert(ref_ids.end(), acked.begin(), acked.end());
  std::vector<std::vector<ScoredDoc>> ref_query, ref_ask;
  for (DocId id : ref_ids) {
    ref_query.push_back(backend.find_related(id, kK).results);
  }
  for (size_t i = 0; i < 32 && i < in.ask_texts.size(); ++i) {
    ref_ask.push_back(
        backend.find_related_external(external_doc(in.ask_texts[i]), kK)
            .results);
  }

  // DRAIN (final save), then the live deployment goes away before the
  // restore so the two never coexist.
  check(count_op(kOpDrain, client->drain()), "DRAIN");
  client.reset();
  dep.server->wait_drained();
  dep.server.reset();
  dep.backend.reset();
  clock.lap("drain");

  // Warm restart, several times in a traced run; the last instance is
  // checked.
  std::vector<double> restore_runs;
  std::unique_ptr<ShardedServing> restored;
  for (int rep = 0; rep < (args.trace ? kRestoreReps : 1); ++rep) {
    restored.reset();
    const double t0 = now_s();
    restored = ShardedServing::restore(
        state_dir, {}, serving_options(state_dir, w.cache_capacity));
    restore_runs.push_back(now_s() - t0);
    if (restored == nullptr) break;
  }
  const double restore_s = servebench::median(restore_runs);
  clock.lap("restore");
  check(restored != nullptr, "restore");
  if (restored == nullptr) return 1;
  check(restored->num_docs() == in.seed_texts.size() + acked.size(),
        "restored num_docs == seed + acknowledged adds");
  bool same = true;
  for (size_t i = 0; i < ref_ids.size(); ++i) {
    same = same && same_results(restored->find_related(ref_ids[i], kK).results,
                                ref_query[i]);
  }
  // An acknowledged post is back when its owner shard indexes it again.
  bool all_acked = true;
  for (DocId id : acked) {
    all_acked = all_acked &&
                !restored->shard(ShardedServing::shard_of(id, kShards))
                     .doc_cluster_terms(id)
                     .empty();
  }
  for (size_t i = 0; i < ref_ask.size(); ++i) {
    same = same &&
           same_results(restored->find_related_external(
                                    external_doc(in.ask_texts[i]), kK)
                            .results,
                        ref_ask[i]);
  }
  check(all_acked, "every acknowledged add answers after restore (" +
                       std::to_string(acked.size()) + ")");
  check(same, "restored answers == pre-drain answers");

  // A run without enough samples for a percentile reports an error
  // instead of a number.
  auto pct = [&](const std::vector<double>& v, int pm, const char* what) {
    std::optional<double> x = servebench::percentile(v, pm);
    if (!x) {
      std::printf("error %s needs %llu samples, has %zu\n", what,
                  static_cast<unsigned long long>(
                      servebench::min_samples_for(pm)),
                  v.size());
      ++g_check_failures;
    }
    return x.value_or(0.0);
  };
  const std::vector<double> add_ms = writer.latency_ms.values();
  const std::vector<double> late_ms = writer.late_ms.values();
  std::printf("window queries=%llu qps=%.1f p50=%.3f ms p99=%.3f ms "
              "server cpu=%.3f s host steal=%.1f%%\n",
              static_cast<unsigned long long>(win.ok), win.qps(),
              pct(win.latency_ms, 500, "window p50"),
              pct(win.latency_ms, 990, "window p99"), win.server_cpu_s,
              100.0 * window_steal);

  // End-to-end metrics.
  e2e.push_back({"setup_s", servebench::median(setup_wall_s), "s"});
  e2e.push_back({"cpu_us_per_query", win.cpu_us_per_query(), "us"});
  e2e.push_back({"prec_at_5", servebench::mean(precisions), "ratio"});

  if (args.trace) {
    Probe probe{&layers};
    const Reading& a = win.before;
    const Reading& z = win.after;
    const double requests = static_cast<double>(z.requests - a.requests);
    const double request_us =
        mean_us(z.request_sum, z.request_count, a.request_sum, a.request_count);
    // Client-observed wall-clock figures of the window and of the write
    // phase: on a shared host they move with the host's load.
    probe.put("net.client_qps", win.qps(), "1/s");
    probe.put("net.client_p50_ms", pct(win.latency_ms, 500, "net.client_p50_ms"),
              "ms");
    probe.put("net.client_p99_ms", pct(win.latency_ms, 990, "net.client_p99_ms"),
              "ms");
    probe.put("net.client_add_p50_ms", pct(add_ms, 500, "add_p50_ms"), "ms");
    probe.put("net.client_add_p95_ms", pct(add_ms, 950, "add_p95_ms"), "ms");
    probe.put("net.requests", requests, "count");
    probe.put("net.rejected", static_cast<double>(z.rejected - a.rejected),
              "count");
    probe.put("net.request_mean_us", request_us, "us");
    probe.put("net.queue_mean_us",
              mean_us(z.queue_sum, z.queue_count, a.queue_sum, a.queue_count),
              "us");
    probe.put("net.wire_mean_us", win.client_rtt_mean_us - request_us, "us");
    probe.put("core.scatter_mean_us",
              mean_us(z.scatter_sum, z.scatter_count, a.scatter_sum,
                      a.scatter_count),
              "us");
    probe.put("core.merge_mean_us",
              mean_us(z.merge_sum, z.merge_count, a.merge_sum, a.merge_count),
              "us");
    probe.put("core.cache_hit_ratio", hit_ratio, "ratio");
    probe.put("core.cache_evictions",
              static_cast<double>(z.cache_evictions - a.cache_evictions),
              "count");
    const double scored = static_cast<double>(z.units_scored - a.units_scored);
    const double pruned = static_cast<double>(z.units_pruned - a.units_pruned);
    probe.put("index.units_scored_per_query",
              requests > 0 ? scored / requests : 0.0, "count");
    probe.put("index.units_pruned_per_query",
              requests > 0 ? pruned / requests : 0.0, "count");
    probe.put("index.prune_ratio",
              scored + pruned > 0 ? pruned / (scored + pruned) : 0.0, "ratio");
    probe.put("bench.writer_late_p95_ms", pct(late_ms, 950, "writer lateness"),
              "ms");
    probe.put("bench.trace_overhead",
              win.qps() > 0 ? traced.qps() / win.qps() - 1.0 : 0.0, "ratio");
    probe.put("bench.setup_cpu_s", servebench::median(setup_cpu_s), "s");
    probe.put("seg.analyze_s", dep.analyze_s, "s");
    probe.put("core.recluster_s", recluster_s, "s");
    probe.put("storage.restore_s", restore_s, "s");

    const double probes_t0 = now_s();
    size_t segments = 0;
    size_t postings = 0;
    for (uint32_t s = 0; s < restored->num_shards(); ++s) {
      const auto& m = restored->shard(s).quiescent().matcher();
      segments += m.num_segments();
      postings += m.postings_bytes();
    }
    probe.put("index.segments", static_cast<double>(segments), "count");
    probe.put("index.postings_mib", postings / (1024.0 * 1024.0), "MiB");
    replay_queries(probe, *restored, traffic);
    replay_asks(probe, *restored, in);
    probe_text_stages(probe, in);
    probe_offline(probe, *restored);
    probe_storage(probe, *restored, in, root + "/probe");
    probe_adds(probe, *restored, in, writer.sent);
    std::printf("probes %.3f s\n", now_s() - probes_t0);

    // Self time per span name, from the nested replay spans.
    std::vector<double> self = servebench::self_times(probe.rec.spans());
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < self.size(); ++i) {
      by_name[probe.rec.spans()[i].name].push_back(self[i] * 1e6);
    }
    for (const auto& [name, v] : by_name) {
      std::printf("self %-30s p50 %10.2f us  n=%zu\n", name.c_str(),
                  servebench::median(v), v.size());
    }
    if (!args.trace_dir.empty()) {
      std::vector<servebench::Span> all = probe.rec.spans();
      for (const auto& r : client_spans) {
        const auto base = static_cast<int32_t>(all.size());
        for (servebench::Span s : r->spans()) {
          if (s.parent >= 0) s.parent += base;
          all.push_back(s);
        }
      }
      fs::create_directories(args.trace_dir);
      const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                               std::to_string(args.seed) + ".jsonl";
      if (servebench::write_spans(path, all, all.empty() ? 0 : all[0].start)) {
        std::printf("spans %zu written to %s\n", all.size(), path.c_str());
      }
    }
    // Each workload's premise.
    auto layer = [&](const std::string& name) {
      for (const Metric& m : layers) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    if (w.hot) {
      std::printf("premise hit ratio >= 0.99 and no units scored: %s\n",
                  layer("core.cache_hit_ratio") >= 0.99 &&
                          layer("index.units_scored_per_query") == 0
                      ? "yes" : "NO");
    } else {
      std::printf("premise find_related_p50 > client p50/2: %s\n",
                  layer("core.find_related_p50_us") >
                          layer("net.client_p50_ms") * 1e3 / 2
                      ? "yes" : "NO");
    }
  }
  restored.reset();
  e2e.push_back({"rss_mib", vm_hwm_mib(), "MiB"});
  std::printf("host steal during run %.1f%%\n", 100.0 * steal_share(run_ticks));
  fs::remove_all(root);

  // Report.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (int op = 0; op < kNumOps; ++op) {
    const uint64_t at = g_ops[op].attempted.load();
    const uint64_t fa = g_ops[op].failed.load();
    std::printf("ops %-10s attempted %8llu failed %llu\n", kOpNames[op],
                static_cast<unsigned long long>(at),
                static_cast<unsigned long long>(fa));
    attempted += at;
    failed += fa;
  }
  std::printf("samples window=%zu add=%zu\n", win.latency_ms.size(),
              add_ms.size());
  const std::vector<Metric>& report = args.trace ? layers : e2e;
  for (const Metric& m : report) {
    std::printf("metric %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  bool finite = true;
  for (const Metric& m : report) finite = finite && std::isfinite(m.value);
  check(finite, "every metric is a finite number");
  const bool correct = g_check_failures == 0 && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + report[i].name + "\": {\"value\": " +
            fmt_value(report[i].value) + ", \"unit\": \"" + report[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-dir DIR]\n");
    return 2;
  }
  std::optional<Workload> w = workload_named(args->workload);
  if (!w) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  return run(*args, *w);
}
