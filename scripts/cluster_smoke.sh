#!/usr/bin/env bash
# Cluster smoke test: the topology-sharded router against real daemons.
#
# Phase 1 — partition-respecting bit-identity over real sockets: two
# `serve --shard-of i/2` daemons behind a `gridband cluster --connect`
# router must produce byte-identical decisions to a solo daemon fed the
# same trace (pinned with --map 2 so both runs see identical requests).
#
# Phase 2 — shard failover: shard 0 runs with a WAL and streams it to a
# hot standby (`--replicate-to` / `--follow`); a mixed workload (30%
# cross-shard, so real two-phase holds land in the WAL) runs through
# the router, the standby syncs, shard 0 is SIGKILLed, the standby is
# promoted with `gridband promote`, shard 1 is restarted from its own
# WAL, and a second router run against the promoted pair must decide
# every request.
#
# Usage: scripts/cluster_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

SEED=7
SOLO_PORT=7550
S0_PORT=7551
S1_PORT=7552
REPL_PORT=7553
STANDBY_PORT=7554

cargo build --release --quiet -p gridband-cli
GRIDBAND=target/release/gridband

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-cluster.XXXXXX")
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== phase 1: 2-shard router vs solo daemon, partition-respecting ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$SOLO_PORT" &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$S0_PORT" --shard-of 0/2 &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$S1_PORT" --shard-of 1/2 &
PIDS+=($!)
wait_port "$SOLO_PORT"; wait_port "$S0_PORT"; wait_port "$S1_PORT"

"$GRIDBAND" cluster --connect "127.0.0.1:$S0_PORT,127.0.0.1:$S1_PORT" \
    --cross 0 --seed "$SEED" --decisions >"$WORK/sharded.txt"
"$GRIDBAND" cluster --connect "127.0.0.1:$SOLO_PORT" --map 2 \
    --cross 0 --seed "$SEED" --decisions >"$WORK/solo.txt"
if ! diff -u "$WORK/solo.txt" "$WORK/sharded.txt" >&2; then
    echo "cluster_smoke: FAIL — sharded decisions diverge from the solo daemon" >&2
    exit 1
fi
REQS=$(wc -l <"$WORK/sharded.txt")
echo "phase 1 OK: $REQS decisions byte-identical across the shard cut" >&2
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done
PIDS=()

echo "== phase 2: mixed workload, kill shard 0, promote its standby ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$STANDBY_PORT" --wal-dir "$WORK/wal-standby" \
    --follow "127.0.0.1:$REPL_PORT" &
PIDS+=($!)
wait_port "$STANDBY_PORT"
"$GRIDBAND" serve --addr "127.0.0.1:$S0_PORT" --shard-of 0/2 \
    --wal-dir "$WORK/wal-s0" --replicate-to "127.0.0.1:$REPL_PORT" &
S0_PID=$!
PIDS+=($S0_PID)
"$GRIDBAND" serve --addr "127.0.0.1:$S1_PORT" --shard-of 1/2 \
    --wal-dir "$WORK/wal-s1" &
S1_PID=$!
PIDS+=($S1_PID)
wait_port "$S0_PORT"; wait_port "$S1_PORT"

"$GRIDBAND" cluster --connect "127.0.0.1:$S0_PORT,127.0.0.1:$S1_PORT" \
    --cross 0.3 --seed 9 --decisions >"$WORK/before.txt"
[ -s "$WORK/before.txt" ] || { echo "cluster_smoke: FAIL — mixed run decided nothing" >&2; exit 1; }

wait_synced "$S0_PORT"
if ! stats_of "$STANDBY_PORT" | grep -q '"role": *"follower"'; then
    echo "cluster_smoke: FAIL — standby does not report role=follower" >&2
    exit 1
fi
if ! stats_of "$S0_PORT" | grep -q '"role": *"shard"'; then
    echo "cluster_smoke: FAIL — shard 0 does not report role=shard" >&2
    exit 1
fi

kill -9 "$S0_PID" 2>/dev/null || true
wait "$S0_PID" 2>/dev/null || true
"$GRIDBAND" promote --addr "127.0.0.1:$STANDBY_PORT"
if stats_of "$STANDBY_PORT" | grep -q '"role": *"follower"'; then
    echo "cluster_smoke: FAIL — promoted standby still reports role=follower" >&2
    exit 1
fi

# Shard 1 was drained by the router's first run; restart it from its own
# WAL so the recovered pair can serve a fresh workload.
kill -9 "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true
"$GRIDBAND" serve --addr "127.0.0.1:$S1_PORT" --shard-of 1/2 \
    --wal-dir "$WORK/wal-s1" &
PIDS+=($!)
wait_port "$S1_PORT"

"$GRIDBAND" cluster --connect "127.0.0.1:$STANDBY_PORT,127.0.0.1:$S1_PORT" \
    --cross 0.3 --seed 9 --decisions >"$WORK/after.txt"
AFTER=$(wc -l <"$WORK/after.txt")
BEFORE=$(wc -l <"$WORK/before.txt")
if [ "$AFTER" != "$BEFORE" ]; then
    echo "cluster_smoke: FAIL — promoted pair decided $AFTER of $BEFORE requests" >&2
    exit 1
fi
echo "phase 2 OK: promoted standby + recovered shard decided all $AFTER requests" >&2
echo "cluster_smoke: OK — sharded routing matches solo, failover pair stays live" >&2
