#!/usr/bin/env bash
# Failover smoke test: run a primary/follower pair end to end through the
# real binaries — primary with `--replicate-to`, follower with `--follow`
# on the same machine — drive a §5.3 workload at the primary, SIGKILL the
# primary mid-run once the follower has acked its exact WAL position,
# promote the follower with `gridband promote`, and finish the workload
# against it with `loadgen --resume`. The resume phase hard-fails if any
# pre-kill acceptance flipped or changed its allocation, and this script
# additionally diffs the end-to-end accept counts against an
# uninterrupted solo reference run: a hot standby taking over must be
# indistinguishable from a primary that never died. The primary and the
# follower snapshot every 2 rounds, so the follower is seeded from
# snapshots whose history the shipper read from the primary's outcome
# log, and the promoted engine starts one of its own; the reference run
# keeps the default cadence.
#
# Usage: scripts/failover_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

REQS=400
KILL_AT=250        # ~ virtual time 250 s = round 5 at the 50 s default step
SEED=7
REF_PORT=7540
PRIMARY_PORT=7541
REPL_PORT=7542
FOLLOWER_PORT=7543

cargo build --release --quiet -p gridband-cli -p gridband-serve
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-failover.XXXXXX")
PRIMARY_PID=""
FOLLOWER_PID=""
cleanup() {
    [ -n "$PRIMARY_PID" ] && kill -9 "$PRIMARY_PID" 2>/dev/null || true
    [ -n "$FOLLOWER_PID" ] && kill -9 "$FOLLOWER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== reference run (solo, uninterrupted) ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$REF_PORT" --wal-dir "$WORK/wal-ref" &
PRIMARY_PID=$!
wait_port "$REF_PORT"
"$LOADGEN" --addr "127.0.0.1:$REF_PORT" --requests "$REQS" --seed "$SEED" \
    --json >"$WORK/ref.json"
kill -9 "$PRIMARY_PID" 2>/dev/null || true
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""

echo "== primary + hot standby: submit, sync, SIGKILL primary, promote, resume ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$FOLLOWER_PORT" --wal-dir "$WORK/wal-follower" \
    --follow "127.0.0.1:$REPL_PORT" --snapshot-every 2 &
FOLLOWER_PID=$!
wait_port "$FOLLOWER_PORT"
"$GRIDBAND" serve --addr "127.0.0.1:$PRIMARY_PORT" --wal-dir "$WORK/wal-primary" \
    --replicate-to "127.0.0.1:$REPL_PORT" --snapshot-every 2 &
PRIMARY_PID=$!
wait_port "$PRIMARY_PORT"

"$LOADGEN" --addr "127.0.0.1:$PRIMARY_PORT" --requests "$REQS" --seed "$SEED" \
    --kill-after "$KILL_AT" --state "$WORK/resume.json"

# The standby must hold the primary's full durable log before the axe
# falls, and it must still be refusing writes.
wait_synced "$PRIMARY_PORT"
if ! stats_of "$FOLLOWER_PORT" | grep -q '"role": *"follower"'; then
    echo "failover_smoke: FAIL — standby does not report role=follower" >&2
    exit 1
fi
kill -9 "$PRIMARY_PID" 2>/dev/null || true
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""

"$GRIDBAND" promote --addr "127.0.0.1:$FOLLOWER_PORT"
"$LOADGEN" --addr "127.0.0.1:$FOLLOWER_PORT" --resume --state "$WORK/resume.json" \
    --json >"$WORK/resumed.json"

REF_REQ=$(requests_of "$WORK/ref.json")
REF_ACC=$(accepted_of "$WORK/ref.json")
RES_REQ=$(requests_of "$WORK/resumed.json")
RES_ACC=$(accepted_of "$WORK/resumed.json")
echo "reference (solo):     $REF_ACC/$REF_REQ accepted" >&2
echo "failed-over standby:  $RES_ACC/$RES_REQ accepted" >&2
if [ "$REF_REQ" != "$RES_REQ" ] || [ "$REF_ACC" != "$RES_ACC" ]; then
    echo "failover_smoke: FAIL — failed-over run diverged from the uninterrupted run" >&2
    exit 1
fi
echo "failover_smoke: OK — kill-primary/promote/resume matches the uninterrupted run" >&2
