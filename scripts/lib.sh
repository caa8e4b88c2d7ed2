# Helpers shared by the smoke scripts; each sources this file from the
# repo root with `. scripts/lib.sh`.

# JSON-lines protocol version the scripts speak (`PROTOCOL_VERSION` in
# crates/serve/src/protocol.rs).
PROTOCOL_VERSION=3

# Wait up to ten seconds for a daemon to accept on 127.0.0.1:$1.
wait_port() {
    for _ in $(seq 100); do
        # The fd opens (and closes) inside the subshell only.
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "$(basename "$0" .sh): daemon on port $1 never came up" >&2
    return 1
}

# One Stats round-trip over /dev/tcp; prints the raw reply line.
stats_of() {
    (
        exec 3<>"/dev/tcp/127.0.0.1/$1"
        printf '{"v": %s, "body": "Stats"}\n' "$PROTOCOL_VERSION" >&3
        head -n1 <&3
    ) 2>/dev/null || true
}

# Wait up to twenty seconds for the primary on port $1 to report that
# its standby applied everything shipped (repl_synced flips to 1 once
# the ack position matches).
wait_synced() {
    for _ in $(seq 200); do
        if stats_of "$1" | grep -q '"repl_synced": *1'; then
            return 0
        fi
        sleep 0.1
    done
    echo "$(basename "$0" .sh): standby never reached repl_synced=1" >&2
    return 1
}

# The first number stored under key $2 in the JSON file $1.
json_field() {
    grep -o "\"$2\": *[0-9.]*" "$1" | head -n1 | grep -o '[0-9.]*$'
}

# The `accepted` and `requests` counts of a `loadgen --json` summary.
accepted_of() { sed -n 's/.*"accepted": \([0-9]*\).*/\1/p' "$1" | head -1; }
requests_of() { sed -n 's/.*"requests": \([0-9]*\).*/\1/p' "$1" | head -1; }
