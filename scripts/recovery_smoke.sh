#!/usr/bin/env bash
# Recovery smoke test: drive the daemon through a §5.3 workload, SIGKILL
# it mid-run (~round 5 of the virtual clock), restart it on the same WAL
# directory, and finish the workload with `loadgen --resume`. The resume
# phase hard-fails if any pre-kill acceptance flipped or changed its
# allocation, and this script additionally diffs the end-to-end
# accept counts against an uninterrupted reference run. The crashed run
# snapshots every 2 rounds, so the kill lands after several snapshots and
# recovery reads a snapshot, the outcome log it names and a WAL tail; the
# reference run keeps the default cadence.
#
# Usage: scripts/recovery_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

REQS=400
KILL_AT=250        # ~ virtual time 250 s = round 5 at the 50 s default step
SEED=7
REF_PORT=7531
RUN_PORT=7532
RESTART_PORT=7533

cargo build --release --quiet -p gridband-cli -p gridband-serve
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-recovery.XXXXXX")
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== reference run (uninterrupted) ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$REF_PORT" --wal-dir "$WORK/wal-ref" &
DAEMON_PID=$!
wait_port "$REF_PORT"
"$LOADGEN" --addr "127.0.0.1:$REF_PORT" --requests "$REQS" --seed "$SEED" \
    --json >"$WORK/ref.json"
kill -9 "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "== crashed run: submit, SIGKILL at ~round 5, restart, resume ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$RUN_PORT" --wal-dir "$WORK/wal" \
    --snapshot-every 2 &
DAEMON_PID=$!
wait_port "$RUN_PORT"
"$LOADGEN" --addr "127.0.0.1:$RUN_PORT" --requests "$REQS" --seed "$SEED" \
    --kill-after "$KILL_AT" --state "$WORK/resume.json"
kill -9 "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

# A fresh port sidesteps TIME_WAIT on the killed listener.
"$GRIDBAND" serve --addr "127.0.0.1:$RESTART_PORT" --wal-dir "$WORK/wal" \
    --snapshot-every 2 &
DAEMON_PID=$!
wait_port "$RESTART_PORT"
"$LOADGEN" --addr "127.0.0.1:$RESTART_PORT" --resume --state "$WORK/resume.json" \
    --json >"$WORK/resumed.json"
kill -9 "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

REF_REQ=$(requests_of "$WORK/ref.json")
REF_ACC=$(accepted_of "$WORK/ref.json")
RES_REQ=$(requests_of "$WORK/resumed.json")
RES_ACC=$(accepted_of "$WORK/resumed.json")
echo "reference: $REF_ACC/$REF_REQ accepted" >&2
echo "recovered: $RES_ACC/$RES_REQ accepted" >&2
if [ "$REF_REQ" != "$RES_REQ" ] || [ "$REF_ACC" != "$RES_ACC" ]; then
    echo "recovery_smoke: FAIL — recovered run diverged from uninterrupted run" >&2
    exit 1
fi
echo "recovery_smoke: OK — kill/recover/resume matches the uninterrupted run" >&2
