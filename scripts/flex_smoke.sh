#!/usr/bin/env bash
# Malleable-reservation smoke test: the water-filling admission path and
# the atomic Amend op against live daemons, end to end.
#
# Three legs:
#
#   1. Rigid byte-identity — the same rigid-only workload runs against a
#      plain daemon and a `--malleable` daemon; `loadgen --decisions`
#      dumps every grant with f64s printed exactly, and the two dumps
#      are diffed. Turning the flag on must not move a single byte of a
#      rigid workload's decisions.
#
#   2. Mixed live run — a `--malleable` daemon on a WAL takes a workload
#      with `--malleable FRAC` submissions and `--amend-rate R`
#      mid-flight renegotiations. Gates: at least one segmented grant in
#      the dump and at least one amend sent *and* granted, so leg 3 is
#      not vacuously green.
#
#   3. Kill/recover byte-diff — with the leg-2 daemon still up (and
#      drained), every decided id is queried over the JSON protocol and
#      the Status replies (state + live alloc, synthesized as
#      peak/start/end for segmented reservations) are dumped. The daemon
#      is SIGKILLed, restarted on the same WAL, and queried again: the
#      two dumps must be byte-identical — segmented bookings and applied
#      amends must replay exactly, not approximately.
#
# Usage: scripts/flex_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

REQS=400
SEED=7
MALL_FRAC=0.4
AMEND_RATE=0.6
PLAIN_PORT=7590
FLAG_PORT=7591
RUN_PORT=7592
RESTART_PORT=7593

cargo build --release --quiet -p gridband-cli
cargo build --release --quiet -p gridband-serve --bin loadgen
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-flex.XXXXXX")
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Query every id in $2 (one per line) against the daemon on port $1 and
# print the raw Status reply lines in id order.
query_dump() {
    local port=$1 ids=$2 n
    n=$(wc -l <"$ids")
    (
        exec 3<>"/dev/tcp/127.0.0.1/$port"
        while read -r id; do
            printf '{"v": %s, "body": {"Query": {"id": %s}}}\n' "$PROTOCOL_VERSION" "$id" >&3
        done <"$ids"
        head -n "$n" <&3
    )
}

echo "== leg 1: rigid-only workload, --malleable vs plain ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$PLAIN_PORT" &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$FLAG_PORT" --malleable &
PIDS+=($!)
wait_port "$PLAIN_PORT"; wait_port "$FLAG_PORT"

"$LOADGEN" --addr "127.0.0.1:$PLAIN_PORT" --requests "$REQS" --seed "$SEED" \
    --decisions "$WORK/plain.txt" --json >"$WORK/plain.json"
"$LOADGEN" --addr "127.0.0.1:$FLAG_PORT" --requests "$REQS" --seed "$SEED" \
    --decisions "$WORK/flag.txt" --json >"$WORK/flag.json"

if ! diff -u "$WORK/plain.txt" "$WORK/flag.txt" >&2; then
    echo "flex_smoke: FAIL — --malleable changed a rigid-only decision" >&2
    exit 1
fi
[ -s "$WORK/plain.txt" ] || { echo "flex_smoke: FAIL — no decisions produced" >&2; exit 1; }
if grep -q '^S ' "$WORK/flag.txt"; then
    echo "flex_smoke: FAIL — rigid-only run produced a segmented grant" >&2
    exit 1
fi

echo "== leg 2: mixed malleable workload with mid-flight amends ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$RUN_PORT" --malleable --wal-dir "$WORK/wal" &
RUN_PID=$!
PIDS+=($RUN_PID)
wait_port "$RUN_PORT"

"$LOADGEN" --addr "127.0.0.1:$RUN_PORT" --requests "$REQS" --seed "$SEED" \
    --malleable "$MALL_FRAC" --amend-rate "$AMEND_RATE" \
    --decisions "$WORK/mall.txt" --json >"$WORK/mall.json"

SEGMENTED=$(grep -c '^S ' "$WORK/mall.txt" || true)
if [ "$SEGMENTED" -eq 0 ]; then
    echo "flex_smoke: FAIL — no segmented grants (malleable path vacuous)" >&2
    exit 1
fi
AMENDS_SENT=$(json_field "$WORK/mall.json" amends_sent)
AMENDS_GRANTED=$(json_field "$WORK/mall.json" amends_granted)
if [ -z "$AMENDS_SENT" ] || [ "$AMENDS_SENT" -eq 0 ]; then
    echo "flex_smoke: FAIL — no amends sent (renegotiation path vacuous)" >&2
    exit 1
fi
if [ -z "$AMENDS_GRANTED" ] || [ "$AMENDS_GRANTED" -eq 0 ]; then
    echo "flex_smoke: FAIL — $AMENDS_SENT amends sent, none granted" >&2
    exit 1
fi

echo "== leg 3: SIGKILL, recover from the WAL, byte-diff queried state ==" >&2
awk '{print $2}' "$WORK/mall.txt" | sort -n >"$WORK/ids.txt"
query_dump "$RUN_PORT" "$WORK/ids.txt" >"$WORK/pre.txt"
# The pre-kill dump must still hold live allocations (alloc is null once
# a reservation's window has passed) or the diff below proves nothing
# about the recovered ledger.
if ! grep -q '"alloc": *\[' "$WORK/pre.txt"; then
    echo "flex_smoke: FAIL — no live allocations at kill time (recovery diff vacuous)" >&2
    exit 1
fi

kill -9 "$RUN_PID" 2>/dev/null || true
wait "$RUN_PID" 2>/dev/null || true

# A fresh port sidesteps TIME_WAIT on the killed listener.
"$GRIDBAND" serve --addr "127.0.0.1:$RESTART_PORT" --malleable --wal-dir "$WORK/wal" &
PIDS+=($!)
wait_port "$RESTART_PORT"
query_dump "$RESTART_PORT" "$WORK/ids.txt" >"$WORK/post.txt"

if ! diff -u "$WORK/pre.txt" "$WORK/post.txt" >&2; then
    echo "flex_smoke: FAIL — recovered state diverged from the pre-kill daemon" >&2
    exit 1
fi

LIVE=$(grep -c '"alloc": *\[' "$WORK/pre.txt" || true)
echo "flex_smoke: OK — $REQS rigid decisions byte-identical under --malleable," \
    "$SEGMENTED segmented grants, $AMENDS_GRANTED/$AMENDS_SENT amends granted," \
    "$LIVE live allocations recovered byte-identically" >&2
