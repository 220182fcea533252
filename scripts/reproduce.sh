#!/usr/bin/env bash
# Reproduces everything: build, tests, the served-path benchmark's build and
# self-test, every paper table/figure bench, the ablations, and the example
# programs. Outputs land in the repo root as test_output.txt and
# bench_output.txt.
#
# Usage: scripts/reproduce.sh [scale]
#   scale  multiplies the bench corpus sizes (default 1; the paper-sized
#          corpora need scale >= 10 and correspondingly more time).
#
# Opt-in extras:
#   IBSEG_SANITIZE_CHECK=1  also run scripts/check_sanitizers.sh (three
#                           extra instrumented builds; slow but proves the
#                           concurrent serving layer race/overflow-free).
#   IBSEG_DOCS_CHECK=1      also run doxygen and fail on documentation
#                           warnings from src/obs, src/core or src/index
#                           (the documented operational surface). Skipped
#                           with a notice when doxygen is not installed.
#   IBSEG_DIFF_CHECK=1      also run the differential suites (serving
#                           answers — any shard count, cached or not,
#                           kernel- or reference-scored, across ingests,
#                           restores and reclusters — equal the single-pipeline
#                           oracle bit for bit) plus the concurrency
#                           stress suite under ThreadSanitizer — one
#                           instrumented build.
#   IBSEG_PERSIST_CHECK=1   also run the persistence suites (snapshot v2 +
#                           ingest log formats, "storage"), the
#                           crash-injection suite (fork + _exit
#                           mid-ingest, "killsafety") and the replication
#                           suite, whose crash promotion parses a dead
#                           leader's ingest log ("replication"), plainly
#                           and under AddressSanitizer — one
#                           instrumented build.
#   IBSEG_FUZZ_CHECK=1      also run the fuzz targets (snapshot loader, WAL
#                           replay, text unescaping, flat-postings seal +
#                           dense kernel vs reference, wire-frame codec —
#                           tests/fuzz/) for 30
#                           seconds each under AddressSanitizer. The short
#                           2s smoke of the same targets runs with the
#                           normal test step (ctest label "fuzz");
#                           IBSEG_FUZZ_TIME_SEC overrides the 30s.
#   IBSEG_RECLUSTER_CHECK=1 also run the background re-clustering suite
#                           (ctest label "recluster": differential
#                           bit-identity vs cold rebuild, generation-keyed
#                           cache, save/restore at generation > 0, trigger
#                           policy) explicitly, plus the recluster-touching
#                           differential, stress and cluster labels under
#                           ThreadSanitizer — the swap window is exactly
#                           where a reader/swapper race would hide, and
#                           each epoch runs the parallel DBSCAN grid pass.
#   IBSEG_NET_CHECK=1       also exercise the network front-end: the
#                           loopback server suite (ctest label "net") under
#                           AddressSanitizer and ThreadSanitizer, plus the
#                           operational smoke scripts/check_net.sh (real
#                           ibseg_server + ibseg_cli over TCP: cold start,
#                           wire commands, drain, warm restart) against both
#                           the plain and the ASan build.
#   IBSEG_REPL_CHECK=1      also exercise WAL-shipped replication: the
#                           replication suite (ctest label "replication":
#                           ship/apply bit-identity, wire bootstrap +
#                           catch-up + lag gauges, read-only replicas
#                           answering as the leader does, crash promotion)
#                           explicitly,
#                           then the same label under ThreadSanitizer —
#                           the polling thread applies segments while the
#                           replica's server threads answer queries,
#                           exactly where an apply/read race would hide.
#   IBSEG_TENANT_CHECK=1    also exercise multi-tenant serving: the tenant
#                           suite (ctest label "tenant": N-tenant process
#                           bit-identical to N single-tenant processes,
#                           save/restore + recluster per tenant, cache
#                           isolation, cross-tenant leakage probe, wire
#                           routing) explicitly, then the same label under
#                           ThreadSanitizer — tenants share the server's
#                           workers and the metrics registry, exactly where
#                           a cross-tenant data race would hide. The gates
#                           (bench/graded_eval adversarial floors,
#                           bench/tenant_fairness_qps starvation bound)
#                           already run with the bench step below.

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1}"

echo "== configure + build =="
# No -G: reuse whatever generator build/ was first configured with (the
# plain `cmake -B build -S .` picks the platform default).
cmake -B build -S .
cmake --build build -j "$(nproc)"

echo "== tests =="
ctest --test-dir build 2>&1 | tee test_output.txt

echo "== servebench build + self-test =="
# The served-path benchmark (servebench/, run by BENCHMARK.json) is a CMake
# project of its own that calls the serving API directly; building it here
# catches an API change that would break it.
cmake -S servebench -B build-servebench -DCMAKE_BUILD_TYPE=Release
cmake --build build-servebench -j "$(nproc)" \
  --target servebench servebench_selftest
./build-servebench/servebench_selftest

if [ "${IBSEG_SANITIZE_CHECK:-0}" = "1" ]; then
  echo "== sanitizer matrix (IBSEG_SANITIZE_CHECK=1) =="
  scripts/check_sanitizers.sh
fi

if [ "${IBSEG_DIFF_CHECK:-0}" = "1" ]; then
  echo "== differential + stress under TSan (IBSEG_DIFF_CHECK=1) =="
  IBSEG_SAN_LABELS="differential|stress" scripts/check_sanitizers.sh thread
fi

if [ "${IBSEG_RECLUSTER_CHECK:-0}" = "1" ]; then
  echo "== background re-clustering epochs (IBSEG_RECLUSTER_CHECK=1) =="
  # Plain run of the recluster label (fast; also covered by the full ctest
  # above, repeated here so a recluster regression is named explicitly)...
  ctest --test-dir build -L recluster --output-on-failure
  # ... then the differential, stress and cluster labels under TSan: the
  # atomic index swap publishes a whole new pipeline under concurrent
  # readers, the ReclusterWorker polls trigger atomics from its own thread,
  # and every epoch's shadow build runs the parallel DBSCAN grid pass.
  IBSEG_SAN_LABELS="differential|stress|cluster" scripts/check_sanitizers.sh thread
fi

if [ "${IBSEG_PERSIST_CHECK:-0}" = "1" ]; then
  echo "== persistence + crash injection (IBSEG_PERSIST_CHECK=1) =="
  # Plain run of the labels (fast; also covered by the full ctest above,
  # repeated here so a persistence regression is named explicitly) ...
  ctest --test-dir build -L 'storage|killsafety|replication' \
    --output-on-failure
  # ... then the same labels under ASan: the recovery paths shuffle raw
  # buffers (CRC frames, torn tails) and fork children that die by _exit,
  # and the Promotion.* crash trials parse the dead leader's log —
  # exactly where a heap overflow would otherwise hide.
  IBSEG_SAN_LABELS="storage|killsafety|replication" \
    scripts/check_sanitizers.sh address
fi

if [ "${IBSEG_FUZZ_CHECK:-0}" = "1" ]; then
  echo "== fuzz smoke under ASan (IBSEG_FUZZ_CHECK=1) =="
  # One ASan build (shared with the other address-mode checks), then a
  # deterministic timed mutation run per target. Any crasher reproduces
  # from the printed PRNG seed; promote it to a regression test.
  cmake -B build-address -S . \
    -DIBSEG_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-address -j "$(nproc)" \
    --target fuzz_snapshot fuzz_wal fuzz_unescape fuzz_flat_postings \
             fuzz_net_frame
  for target in fuzz_snapshot fuzz_wal fuzz_unescape fuzz_flat_postings \
                fuzz_net_frame; do
    echo "-- ${target}"
    env ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1" \
        IBSEG_FUZZ_TIME_SEC="${IBSEG_FUZZ_TIME_SEC:-30}" \
        "build-address/tests/fuzz/${target}"
  done
fi

if [ "${IBSEG_NET_CHECK:-0}" = "1" ]; then
  echo "== network front-end (IBSEG_NET_CHECK=1) =="
  # Plain run of the loopback label (also covered by the full ctest above,
  # repeated here so a net regression is named explicitly), the loopback
  # suite under ASan — sockets, worker handoff, drain teardown are exactly
  # where a use-after-close would hide — and under TSan — workers write
  # their answers to the socket and hand off parked input to the I/O
  # thread through a flag handshake — and the operational smoke with the
  # real binaries, in both build flavors.
  ctest --test-dir build -L net --output-on-failure
  IBSEG_SAN_LABELS="net" scripts/check_sanitizers.sh address
  IBSEG_SAN_LABELS="net" scripts/check_sanitizers.sh thread
  scripts/check_net.sh build
  cmake --build build-address -j "$(nproc)" --target ibseg_server ibseg_cli
  scripts/check_net.sh build-address
fi

if [ "${IBSEG_REPL_CHECK:-0}" = "1" ]; then
  echo "== WAL-shipped replication (IBSEG_REPL_CHECK=1) =="
  # Plain run of the replication label (also covered by the full ctest
  # above, repeated here so a replication regression is named explicitly)
  # ...
  ctest --test-dir build -L replication --output-on-failure
  # ... then the same label under TSan: apply_shipped publishes into the
  # replica's shards while its polling thread, lag-gauge writers and any
  # serving reads run concurrently.
  IBSEG_SAN_LABELS="replication" scripts/check_sanitizers.sh thread
fi

if [ "${IBSEG_TENANT_CHECK:-0}" = "1" ]; then
  echo "== multi-tenant serving (IBSEG_TENANT_CHECK=1) =="
  # Plain run of the tenant label (also covered by the full ctest above,
  # repeated here so a tenant regression is named explicitly) ...
  ctest --test-dir build -L tenant --output-on-failure
  # ... then the same label under TSan: every tenant's queries run on the
  # server's shared workers and register into the one shared metrics
  # registry while the server's DRR dispatcher moves work between
  # per-tenant queues — the exact surfaces where cross-tenant races hide.
  IBSEG_SAN_LABELS="tenant" scripts/check_sanitizers.sh thread
fi

if [ "${IBSEG_DOCS_CHECK:-0}" = "1" ]; then
  echo "== docs check (IBSEG_DOCS_CHECK=1) =="
  if command -v doxygen >/dev/null 2>&1; then
    doxygen Doxyfile 2> doxygen_warnings.txt || true
    if grep -E 'src/(obs|core|index|net)/' doxygen_warnings.txt; then
      echo "error: doxygen warnings in src/obs, src/core, src/index" \
           "or src/net" >&2
      echo "       (full list: doxygen_warnings.txt)" >&2
      exit 1
    fi
    echo "doxygen warning-clean over src/obs, src/core, src/index, src/net"
  else
    echo "doxygen not installed; skipping docs check"
  fi
fi

echo "== benches (IBSEG_BENCH_SCALE=${SCALE}) =="
export IBSEG_BENCH_SCALE="${SCALE}"
for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

echo "== bench JSON schema check =="
# Every BENCH_*.json must parse as JSON and carry the keys the dashboards
# consume, beyond the "bench", "scale" and "hardware_threads" every file
# opens with (bench/harness.h); a silent format drift fails here.
while read -r file keys; do
  if ! python3 -m json.tool "${file}" >/dev/null; then
    echo "error: ${file} is missing or not valid JSON" >&2
    exit 1
  fi
  for key in bench scale hardware_threads ${keys}; do
    if ! grep -q "\"${key}\"" "${file}"; then
      echo "error: ${file} missing key \"${key}\"" >&2
      exit 1
    fi
  done
  echo "${file} schema OK"
done <<'EOF'
BENCH_adversarial_eval.json profiles mean_prec5 mean_ndcg5 floor pass
BENCH_concurrent_qps.json configs reader_threads qps ingests_per_sec final_docs
BENCH_obs_overhead.json windows median_qps_disabled median_qps_enabled overhead_pct overhead_pct_q1 overhead_pct_q3 overhead_ns_per_query within_target
BENCH_persist_restore.json cold_build_sec snapshot_save_sec warm_restore_sec snapshot_bytes ingest_ms_batch_wal_fsync
BENCH_recluster.json recluster_sec pending_before pending_after qps_quiescent qps_during_swap qps_dip_fraction qps_dip_fraction_q1 qps_dip_fraction_q3 offline_generation max_query_quiescent_ms max_query_stall_ms rss_growth_mib rss_after_mib analysis_bytes_per_post
BENCH_server_qps.json configs clients qps p50_ms p95_ms p99_ms
BENCH_sharded_qps.json configs shards qps ingests
BENCH_tenant_fairness.json tenants tenant phase qps p50_ms p95_ms p99_ms gate bound_ms
EOF

echo "== examples =="
./build/examples/quickstart
./build/examples/tech_support_forum
./build/examples/travel_reviews
./build/examples/segmentation_explorer </dev/null
./build/examples/run_experiment 200 experiment_results.csv

echo "done; see test_output.txt, bench_output.txt, experiment_results.csv"
