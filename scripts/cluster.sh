#!/usr/bin/env bash
# cluster.sh — one-command multi-process benchmark: build ringd and
# ringload, launch an N-node Ring cluster as real OS processes over
# TCP loopback, drive it with the load generator, and tear it down.
#
# Usage:
#   scripts/cluster.sh                    # 5-node rep3+srs3.2, BENCH suite
#   scripts/cluster.sh -mode open -rate 5000 -duration 10s
#
# Environment knobs:
#   NODES=5        cluster size (shards=3, redundant=2 fixed by default)
#   RING_GROUPS=1  memgest groups per node (one core each; see ringd -groups)
#   BASE_PORT=7400 first TCP port (node i uses BASE_PORT + i*RING_GROUPS;
#                  each extra DURABLE pass shifts the base by 100)
#   BLOCK_SIZE=    SRS logical block size; the SRS memgest holds
#                  lcm(k,s) blocks total, so it must cover the key
#                  space times a couple of retained versions
#                  (default 4 MiB, ~12 MiB of SRS capacity)
#   DURATION=5s    measurement window per scheme
#   DURABLE=0      1 = after the volatile pass, re-run the suite on
#                  durable clusters (-data-dir) with fsync=always and
#                  fsync=interval, merging the extra rows (schemes
#                  rep3+fsync=..., srs3.2+fsync=...) into BENCH_OUT —
#                  the durability-tax trajectory
#   BENCH_OUT=     write a benchjson trajectory file (e.g. BENCH_7.json)
#   PREV_DIR=      gate against committed BENCH_*.json in this directory
#   ISSUE=7        issue number recorded in BENCH_OUT
#
# Any extra arguments are passed to ringload verbatim; with none, the
# full BENCH suite runs: GF kernels, closed-loop rep3 and srs3.2, and
# the rep3+bulkconv elasticity row (the same closed-loop workload
# measured while a background bulk move churns the key space
# between the two memgests).
set -euo pipefail
cd "$(dirname "$0")/.."

NODES="${NODES:-5}"
# RING_GROUPS, not GROUPS: bash reserves GROUPS (the user's group
# list) and silently ignores assignments to it.
RING_GROUPS="${RING_GROUPS:-1}"
case "$NODES" in ''|*[!0-9]*|0) NODES=5 ;; esac
case "$RING_GROUPS" in ''|*[!0-9]*|0) RING_GROUPS=1 ;; esac
BASE_PORT="${BASE_PORT:-7400}"
BLOCK_SIZE="${BLOCK_SIZE:-$((4 << 20))}"
DURATION="${DURATION:-5s}"
DURABLE="${DURABLE:-0}"
ISSUE="${ISSUE:-7}"

mkdir -p bin
go build -o bin/ringd ./cmd/ringd
go build -o bin/ringload ./cmd/ringload

launcher=""
ringd_log=""
stop_cluster() {
  [ -n "$launcher" ] || return 0
  kill "$launcher" 2>/dev/null || true
  wait "$launcher" 2>/dev/null || true
  launcher=""
}
trap stop_cluster EXIT

# boot_cluster BASE_PORT [extra ringd args...] — launches the cluster
# and sets $nodes to the RING_NODES address list the launcher prints.
boot_cluster() {
  local port="$1"; shift
  ringd_log="$(mktemp)"
  ./bin/ringd -launch "$NODES" -base-port "$port" -groups "$RING_GROUPS" \
    -shards 3 -redundant 2 -memgests rep3,srs3.2 -block-size "$BLOCK_SIZE" "$@" \
    >"$ringd_log" 2>&1 &
  launcher=$!
  nodes=""
  for _ in $(seq 1 50); do
    nodes="$(sed -n 's/^RING_NODES=//p' "$ringd_log" | head -1)"
    [ -n "$nodes" ] && break
    kill -0 "$launcher" 2>/dev/null || { cat "$ringd_log"; echo "cluster.sh: launcher died" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$nodes" ] || { cat "$ringd_log"; echo "cluster.sh: no RING_NODES from launcher" >&2; exit 1; }
  echo "cluster.sh: cluster up on $nodes (groups=$RING_GROUPS)"
}

# run_load [extra ringload args...] — drives the booted cluster; on
# failure dumps the launcher log and exits.
run_load() {
  local rc=0
  ./bin/ringload -nodes "$nodes" -groups "$RING_GROUPS" -duration "$DURATION" \
    -issue "$ISSUE" "$@" || rc=$?
  [ "$rc" -eq 0 ] || { cat "$ringd_log" >&2; exit "$rc"; }
}

bench=()
[ -n "${BENCH_OUT:-}" ] && bench=(-bench-out "$BENCH_OUT")
gate=()
[ -n "${PREV_DIR:-}" ] && gate=(-prev-dir "$PREV_DIR")

if [ "$#" -gt 0 ]; then
  # Explicit ringload arguments: single volatile pass, verbatim.
  boot_cluster "$BASE_PORT"
  run_load "${bench[@]}" "${gate[@]}" "$@"
  exit 0
fi

if [ "$DURABLE" != "1" ]; then
  boot_cluster "$BASE_PORT"
  run_load "${bench[@]}" "${gate[@]}" -suite -convert
  exit 0
fi

# DURABLE=1: three passes — volatile baseline, then the same suite on
# durable clusters with fsync=always and fsync=interval. The extra rows
# merge into BENCH_OUT under distinct scheme labels and the regression
# gate runs once, on the merged trajectory. Between passes the launcher
# is SIGTERM'd so every child closes its WAL cleanly.
data_dir="$(mktemp -d)"
trap 'stop_cluster; rm -rf "$data_dir"' EXIT

boot_cluster "$BASE_PORT"
run_load "${bench[@]}" -suite -convert
stop_cluster

boot_cluster "$((BASE_PORT + 100))" -data-dir "$data_dir/always" -fsync always
run_load "${bench[@]}" -bench-merge -kernels=false -suite \
  -rep-scheme rep3+fsync=always -srs-scheme srs3.2+fsync=always
stop_cluster

boot_cluster "$((BASE_PORT + 200))" -data-dir "$data_dir/interval" -fsync interval
run_load "${bench[@]}" "${gate[@]}" -bench-merge -kernels=false -suite \
  -rep-scheme rep3+fsync=interval -srs-scheme srs3.2+fsync=interval
