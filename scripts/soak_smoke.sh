#!/usr/bin/env bash
# Soak smoke test: a real daemon with watermark GC active under an
# open-loop (coordinated-omission-safe) load.
#
# A `gridband serve --gc-horizon` daemon takes a §5.3 workload from
# `loadgen --open-loop --rate`, which timestamps every request with its
# intended send time and never skips sends when it falls behind. The
# gates:
#
#   1. GC engaged: the daemon's Stats report a non-null `gc_watermark`
#      after the run — the watermark actually advanced.
#   2. Memory flat: daemon RSS grows by less than RSS_LIMIT_KB between
#      the pre-load and post-load samples.
#   3. Latency flat: the intended-start-corrected p99 of the last
#      quintile of requests stays within P99_FACTOR x the first
#      quintile's (+ P99_SLACK_MS grace for scheduler noise).
#   4. The run did real work: accepted > 0.
#
# Usage: scripts/soak_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PORT=7570
REQUESTS=20000
RATE=8000
SEED=11
GC_HORIZON=5
RSS_LIMIT_KB=65536
P99_FACTOR=3
P99_SLACK_MS=50

cargo build --release --quiet -p gridband-cli
cargo build --release --quiet -p gridband-serve --bin loadgen
GRIDBAND=target/release/gridband
LOADGEN=target/release/loadgen

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gridband-soak.XXXXXX")
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

rss_kb() {
    awk '/^VmRSS:/ { print $2 }' "/proc/$1/status"
}

"$GRIDBAND" serve --addr "127.0.0.1:$PORT" --gc-horizon "$GC_HORIZON" &
DAEMON=$!
PIDS+=($DAEMON)
wait_port "$PORT"

RSS_BEFORE=$(rss_kb "$DAEMON")
"$LOADGEN" --addr "127.0.0.1:$PORT" --requests "$REQUESTS" --seed "$SEED" \
    --open-loop --rate "$RATE" --json >"$WORK/report.json"
RSS_AFTER=$(rss_kb "$DAEMON")
stats_of "$PORT" >"$WORK/stats.json"

ACCEPTED=$(grep -o '"accepted": *[0-9]*' "$WORK/report.json" | head -n1 | grep -o '[0-9]*')
if [ -z "$ACCEPTED" ] || [ "$ACCEPTED" -eq 0 ]; then
    echo "soak_smoke: FAIL — loadgen accepted nothing" >&2
    exit 1
fi

if ! grep -q '"gc_watermark": *[0-9]' "$WORK/stats.json"; then
    echo "soak_smoke: FAIL — daemon never advanced a GC watermark" >&2
    grep -o '"gc_watermark": *[^,}]*' "$WORK/stats.json" >&2 || true
    exit 1
fi
WATERMARK=$(grep -o '"gc_watermark": *[0-9.e+-]*' "$WORK/stats.json" | grep -o '[0-9.e+-]*$')

GROWTH=$((RSS_AFTER - RSS_BEFORE))
if [ "$GROWTH" -gt "$RSS_LIMIT_KB" ]; then
    echo "soak_smoke: FAIL — daemon RSS grew ${GROWTH} KB (${RSS_BEFORE} -> ${RSS_AFTER}), limit ${RSS_LIMIT_KB} KB" >&2
    exit 1
fi

# quintile_corrected_p99_ms is a 5-element JSON array (pretty-printed
# across lines — join them first); compare first vs last element.
QUINTILES=$(tr -d '\n ' <"$WORK/report.json" \
    | grep -o '"quintile_corrected_p99_ms":\[[^]]*\]' \
    | tr -d '[]' | cut -d: -f2 | tr ',' ' ' || true)
if [ -z "$QUINTILES" ]; then
    echo "soak_smoke: FAIL — report carries no quintile_corrected_p99_ms" >&2
    exit 1
fi
read -r FIRST_P99 _ _ _ LAST_P99 <<<"$QUINTILES"
FLAT=$(awk -v f="$FIRST_P99" -v l="$LAST_P99" -v k="$P99_FACTOR" -v s="$P99_SLACK_MS" \
    'BEGIN { print (l <= k * f + s) ? "ok" : "fail" }')
if [ "$FLAT" != "ok" ]; then
    echo "soak_smoke: FAIL — corrected p99 drifted: first quintile ${FIRST_P99} ms, last ${LAST_P99} ms (limit ${P99_FACTOR}x + ${P99_SLACK_MS} ms)" >&2
    exit 1
fi

echo "soak_smoke: OK — $ACCEPTED/$REQUESTS accepted, watermark $WATERMARK, RSS ${RSS_BEFORE} -> ${RSS_AFTER} KB (+${GROWTH}), corrected p99 ${FIRST_P99} -> ${LAST_P99} ms" >&2
