#!/usr/bin/env bash
# End-to-end loopback smoke of the network front-end, using the real
# binaries over a real TCP socket — the same drill an operator runs
# (docs/OPERATIONS.md): cold start with durable state, ping / query /
# ask / add / wire metrics through ibseg_cli --connect, graceful drain
# over the wire (process must exit 0 and print "drained cleanly"), then
# a warm restart from the drained directory answering the post-ingest
# query identically. The byte-level protocol tests live in ctest (labels
# "unit", "net", "fuzz"); this script checks the *operational* surface:
# flags, port files, signal-free drain, state-directory round trip.
#
# Usage: scripts/check_net.sh [build-dir]     (default: build)
#   The build-dir argument lets reproduce.sh run the same smoke against
#   the AddressSanitizer build (build-address).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SERVER="${BUILD}/examples/ibseg_server"
CLI="${BUILD}/examples/ibseg_cli"
for bin in "${SERVER}" "${CLI}"; do
  if [ ! -x "${bin}" ]; then
    echo "error: ${bin} not built" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "${SERVER_PID}" ] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill "${SERVER_PID}" 2>/dev/null || true
    wait "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

wait_port() {
  # The server writes its bound port to --port-file once listening;
  # generous deadline because sanitizer builds start slowly.
  local file="$1" i
  for i in $(seq 1 200); do
    if [ -s "${file}" ]; then
      cat "${file}"
      return 0
    fi
    sleep 0.1
  done
  echo "error: server never wrote ${file}" >&2
  return 1
}

echo "-- generate corpus"
"${CLI}" generate tech 40 "${WORK}/posts.corpus" >/dev/null

echo "-- removed fan-out flags print usage and exit 2"
for flag in --read-replicas=127.0.0.1:1 --replica-staleness=0; do
  rc=0
  "${SERVER}" --corpus="${WORK}/posts.corpus" "${flag}" 2>/dev/null || rc=$?
  [ "${rc}" -eq 2 ] || { echo "error: ${flag} exited ${rc}" >&2; exit 1; }
done

echo "-- cold start (ephemeral port, durable state)"
"${SERVER}" --corpus="${WORK}/posts.corpus" --shards=2 \
    --state="${WORK}/state.d" --port=0 --port-file="${WORK}/port" \
    >"${WORK}/server.log" 2>&1 &
SERVER_PID=$!
PORT="$(wait_port "${WORK}/port")"
ADDR="127.0.0.1:${PORT}"

echo "-- ping"
"${CLI}" --connect="${ADDR}" ping | grep -q "pong: epoch 0, 40 docs"

echo "-- add (acknowledged ingest)"
echo "my laptop powers off randomly and the battery drains fast" | \
    "${CLI}" --connect="${ADDR}" add | grep -q "added doc 40"

echo "-- query (post-ingest reference output)"
"${CLI}" --connect="${ADDR}" query 0 5 | tee "${WORK}/query_before.txt" | \
    grep -q "epoch 1, 41 docs"

echo "-- ask (external post)"
echo "the wifi drops every few minutes after resume" | \
    "${CLI}" --connect="${ADDR}" ask 3 | grep -q "epoch 1, 41 docs"

echo "-- metrics over the wire"
"${CLI}" --connect="${ADDR}" --metrics ping >"${WORK}/metrics.txt"
for series in ibseg_net_connections ibseg_net_requests_total \
              ibseg_net_rejected_total ibseg_net_request_seconds; do
  grep -q "${series}" "${WORK}/metrics.txt" || {
    echo "error: ${series} missing from wire metrics" >&2
    exit 1
  }
done

echo "-- drain over the wire"
"${CLI}" --connect="${ADDR}" drain | grep -q "draining"
wait "${SERVER_PID}"
SERVER_PID=""
grep -q "drained cleanly" "${WORK}/server.log" || {
  echo "error: server did not report a clean drain" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}

echo "-- warm restart from the drained state"
: >"${WORK}/port"
"${SERVER}" --restore="${WORK}/state.d" --state="${WORK}/state.d" \
    --port=0 --port-file="${WORK}/port" \
    >"${WORK}/server2.log" 2>&1 &
SERVER_PID=$!
PORT="$(wait_port "${WORK}/port")"
ADDR="127.0.0.1:${PORT}"

# The acknowledged ingest survived (41 docs, epoch 1) and the query
# answers exactly as before the drain.
"${CLI}" --connect="${ADDR}" ping | grep -q "pong: epoch 1, 41 docs"
"${CLI}" --connect="${ADDR}" query 0 5 >"${WORK}/query_after.txt"
diff "${WORK}/query_before.txt" "${WORK}/query_after.txt"

echo "-- drain restarted server"
"${CLI}" --connect="${ADDR}" drain >/dev/null
wait "${SERVER_PID}"
SERVER_PID=""

echo "net loopback smoke OK (${BUILD})"
