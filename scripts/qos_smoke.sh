#!/usr/bin/env bash
# QoS smoke test: the leftover-bandwidth redistribution overlay against
# live daemons.
#
# Two fresh daemons run the same §5.3 mixed-class workload under
# `--policy min` (minimal guarantees leave residual headroom), one with
# `--qos` and one without. The boosted daemon must:
#
#   * make byte-identical admission decisions — `loadgen --decisions`
#     dumps every (id, bw, start, finish) grant with f64s printed
#     exactly, and the two dumps are diffed;
#   * report zero guaranteed-finish-time violations and zero port
#     oversubscriptions — the conservation verifier runs inside the
#     daemon every round;
#   * actually boost (boosted_mb > 0), so the two gates above are not
#     vacuously green.
#
# Usage: scripts/qos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

SEED=7
PLAIN_PORT=7570
QOS_PORT=7571
CLASSES="2:1:1"

cargo build --release --quiet -p gridband-cli
cargo build --release --quiet -p gridband-serve --bin loadgen
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-qos.XXXXXX")
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== qos smoke: mixed-class loadgen, --qos vs plain ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$PLAIN_PORT" --policy min &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$QOS_PORT" --policy min --qos &
PIDS+=($!)
wait_port "$PLAIN_PORT"; wait_port "$QOS_PORT"

"$LOADGEN" --addr "127.0.0.1:$PLAIN_PORT" --requests 400 --seed "$SEED" \
    --classes "$CLASSES" --decisions "$WORK/plain.txt" --json >"$WORK/plain.json"
"$LOADGEN" --addr "127.0.0.1:$QOS_PORT" --requests 400 --seed "$SEED" \
    --classes "$CLASSES" --decisions "$WORK/qos.txt" --json >"$WORK/qos.json"

if ! diff -u "$WORK/plain.txt" "$WORK/qos.txt" >&2; then
    echo "qos_smoke: FAIL — --qos changed an admission decision" >&2
    exit 1
fi
[ -s "$WORK/plain.txt" ] || { echo "qos_smoke: FAIL — no decisions produced" >&2; exit 1; }

ACCEPTED=$(json_field "$WORK/qos.json" accepted)
if [ -z "$ACCEPTED" ] || [ "$ACCEPTED" -eq 0 ]; then
    echo "qos_smoke: FAIL — boosted daemon accepted nothing" >&2
    exit 1
fi
BOOSTED_MB=$(json_field "$WORK/qos.json" qos_boosted_mb)
if [ -z "$BOOSTED_MB" ] || [ "$BOOSTED_MB" -eq 0 ]; then
    echo "qos_smoke: FAIL — boosted daemon never resold residual capacity (gates vacuous)" >&2
    exit 1
fi
VIOLATIONS=$(json_field "$WORK/qos.json" qos_finish_violations)
OVERSUB=$(json_field "$WORK/qos.json" qos_oversubscriptions)
if [ "$VIOLATIONS" != 0 ] || [ "$OVERSUB" != 0 ]; then
    echo "qos_smoke: FAIL — $VIOLATIONS finish violations, $OVERSUB oversubscriptions" >&2
    exit 1
fi

REQS=$(wc -l <"$WORK/plain.txt")
echo "qos_smoke: OK — $REQS decisions byte-identical, $ACCEPTED accepted, ${BOOSTED_MB} MB resold, 0 violations" >&2
