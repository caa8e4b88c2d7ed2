#!/usr/bin/env bash
# Wire smoke test: the binary frame codec against real daemons.
#
# Phase 1 — codec bit-identity over real sockets: the same pinned trace
# is routed through `gridband cluster --decisions` twice, once per
# codec, each against a fresh daemon (a drained daemon rejects new
# submissions, so the runs cannot share one). The decision outputs must
# be byte-identical, and the binary-run daemon must report the
# connection under `conns_binary` — proving auto-detection actually
# took the binary path rather than silently falling back to JSON.
#
# Phase 2 — loadgen parity: the same §5.3 workload replayed by
# `loadgen --wire json` and `--wire binary` against fresh daemons must
# accept the same number of requests.
#
# Usage: scripts/wire_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

SEED=7
JSON_PORT=7560
BIN_PORT=7561
LG_JSON_PORT=7562
LG_BIN_PORT=7563

cargo build --release --quiet -p gridband-cli
cargo build --release --quiet -p gridband-serve --bin loadgen
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-wire.XXXXXX")
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== phase 1: cluster --decisions, json vs binary codec ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$JSON_PORT" &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$BIN_PORT" &
PIDS+=($!)
wait_port "$JSON_PORT"; wait_port "$BIN_PORT"

"$GRIDBAND" cluster --connect "127.0.0.1:$JSON_PORT" --map 1 \
    --cross 0 --seed "$SEED" --wire json --decisions >"$WORK/json.txt"
"$GRIDBAND" cluster --connect "127.0.0.1:$BIN_PORT" --map 1 \
    --cross 0 --seed "$SEED" --wire binary --decisions >"$WORK/binary.txt"
if ! diff -u "$WORK/json.txt" "$WORK/binary.txt" >&2; then
    echo "wire_smoke: FAIL — binary codec decisions diverge from JSON" >&2
    exit 1
fi
[ -s "$WORK/json.txt" ] || { echo "wire_smoke: FAIL — no decisions produced" >&2; exit 1; }
if ! stats_of "$BIN_PORT" | grep -q '"conns_binary": *[1-9]'; then
    echo "wire_smoke: FAIL — daemon never detected a binary connection" >&2
    exit 1
fi
REQS=$(wc -l <"$WORK/json.txt")
echo "phase 1 OK: $REQS decisions byte-identical across codecs" >&2
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done
PIDS=()

echo "== phase 2: loadgen parity, json vs binary codec ==" >&2
"$GRIDBAND" serve --addr "127.0.0.1:$LG_JSON_PORT" &
PIDS+=($!)
"$GRIDBAND" serve --addr "127.0.0.1:$LG_BIN_PORT" &
PIDS+=($!)
wait_port "$LG_JSON_PORT"; wait_port "$LG_BIN_PORT"

"$LOADGEN" --addr "127.0.0.1:$LG_JSON_PORT" --requests 400 --seed "$SEED" \
    --wire json --json >"$WORK/lg-json.json"
"$LOADGEN" --addr "127.0.0.1:$LG_BIN_PORT" --requests 400 --seed "$SEED" \
    --wire binary --json >"$WORK/lg-binary.json"
ACC_JSON=$(grep -o '"accepted": *[0-9]*' "$WORK/lg-json.json" | head -n1 | grep -o '[0-9]*')
ACC_BIN=$(grep -o '"accepted": *[0-9]*' "$WORK/lg-binary.json" | head -n1 | grep -o '[0-9]*')
if [ -z "$ACC_JSON" ] || [ "$ACC_JSON" -eq 0 ]; then
    echo "wire_smoke: FAIL — JSON loadgen accepted nothing" >&2
    exit 1
fi
if [ "$ACC_JSON" != "$ACC_BIN" ]; then
    echo "wire_smoke: FAIL — loadgen accepted $ACC_JSON over JSON but $ACC_BIN over binary" >&2
    exit 1
fi
echo "phase 2 OK: both codecs accepted $ACC_JSON of 400 requests" >&2
echo "wire_smoke: OK — binary codec is decision-identical to JSON over live daemons" >&2
