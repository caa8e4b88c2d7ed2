#!/usr/bin/env bash
# Regenerate BENCH_admission.json: micro indexed-vs-linear profile query
# timings, an indexed/linear differential check, the §5.3 end-to-end
# admission rounds (decisions/sec, p50/p99 round latency) cross-checked
# against the event-driven simulator,
# plus the WAL-streaming replication group (batch-to-standby sync lag,
# failover-to-first-decision time, hard-gated on zero divergence and a
# byte-identical follower store) and the topology-sharded cluster group
# (shards × cross-fraction router throughput, hard-gated on zero
# divergence vs a solo run and zero conservation violations) and the
# long-horizon GC soak
# (≥10⁶ requests through a watermark-collected ledger: hard-gated on
# flat per-quintile breakpoint counts, RSS, and round p99, on the sweep
# actually collecting, and on zero decision divergence against a
# never-collecting reference replay of the same trace prefix) and the
# malleable group (water-filled admission across the §5.3 load grid:
# rigid vs mixed accept rates per seed and interarrival, hard-gated on
# zero rigid-workload divergence with `--malleable` enabled, on a
# non-vacuous count of segmented grants, and on a positive accept-rate
# delta over the all-rigid baseline at high load).
#
# Usage:
#   scripts/bench.sh                # full run, writes BENCH_admission.json
#   scripts/bench.sh --smoke        # reduced sizes, a few seconds
#   scripts/bench.sh --out=FILE     # write elsewhere
#
# The binary exits non-zero if the equivalence or speedup gates fail, so
# this script doubles as a CI smoke check.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --quiet -p gridband-bench --bin admission -- "$@"
