#!/usr/bin/env bash
# The full verification gate, and the only step of the CI `check` job
# (.github/workflows/ci.yml). Any failure stops the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt ==" >&2
cargo fmt --all -- --check

echo "== clippy ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links fail here: a link that no longer resolves, or a
# public doc that links a private item. The seven `compat/*` shims stand
# in for crates.io packages and are not documented as ours.
echo "== doc ==" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude criterion --exclude crossbeam --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json

echo "== build (release) ==" >&2
cargo build --workspace --release

# The archived MALLEABLE table pins the offline water-filling decisions
# end to end; the binary is deterministic, so any byte of drift fails.
echo "== malleable archive ==" >&2
target/release/malleable | diff -u results/malleable.txt -

echo "== test ==" >&2
cargo test --workspace -q

echo "== recovery smoke ==" >&2
scripts/recovery_smoke.sh

echo "== failover smoke ==" >&2
scripts/failover_smoke.sh

echo "== cluster smoke ==" >&2
scripts/cluster_smoke.sh

echo "== wire smoke ==" >&2
scripts/wire_smoke.sh

echo "== qos smoke ==" >&2
scripts/qos_smoke.sh

echo "== flex smoke ==" >&2
scripts/flex_smoke.sh

echo "== soak smoke ==" >&2
scripts/soak_smoke.sh

# The repo benchmark is built from its own workspace, so nothing above
# compiles it; a change that breaks its pinned surface or its output
# checks (`correct: false` exits non-zero) must fail here, not at review.
# One-second runs, not `--smoke`: the smoke's half-second `ledger_dense`
# pool (22 000 ops) is gone before the first half slice once the daemon
# passes ≈47k ops/s on small profiles, and the harness then gives up
# ("too short to hold one whole slice", exit 2) without a verdict.
echo "== benchmark harness tests ==" >&2
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== benchmark, one-second runs ==" >&2
benchmark/run.sh --seconds 1

echo "verify: all green" >&2
