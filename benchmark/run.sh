#!/usr/bin/env bash
# The one command of the repo benchmark (see benchmark/README.md).
#
#   benchmark/run.sh                                   every workload end to end, then every traced run
#   benchmark/run.sh --seed N --workload NAME --repeat K --smoke
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; last line is its result
#   benchmark/run.sh compare A.json B.json             apply the bounds of BENCHMARK.json
#
# Builds the shipped daemon (root workspace, release) and the harness
# (this directory's own package) from source, then hands over to
# gridbench. Exits non-zero if a build, a run or a check fails.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

# One target directory for both builds; relative values are taken from
# the root of the checkout, where the benchmark is run from.
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet -p gridband-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export GRIDBAND_BIN=$target/release/gridband
export GRIDBENCH_OUT=$root/benchmark/out
export GRIDBENCH_SPEC=$root/BENCHMARK.json

case "${1:-}" in
compare) ;;
*)
    case " $* " in
    *" --trace "*) ;;
    *) set -- suite "$@" ;;
    esac
    ;;
esac
exec "$target/release/gridbench" "$@"
