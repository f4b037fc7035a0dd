#!/bin/sh
# trace-smoke: end-to-end check of the tracing subsystem against a real
# networked deployment. Generates a small corpus, serves it as two shard
# servers (-role shard, one replica set each) behind a coordinator
# (-role coordinator) with every trace retained, runs one
# search through the coordinator, and asserts that:
#
#   1. the response body and X-Trace-Id header carry the same trace ID,
#   2. /v1/debug/traces/{id} returns the stored span tree with a
#      coordinator_search root, one shard span per replica set under
#      scatter, and each set's shard-side span tree grafted in,
#   3. the OpenMetrics scrape carries an exemplar naming that trace ID,
#   4. the retained-query views answer on the coordinator:
#      /v1/debug/slow?n=1 and /v1/debug/costly?n=1 name that trace, and
#      the trace_id on the last /v1/debug/journal line resolves at
#      /v1/debug/traces/{id}.
#
# Needs curl and jq. Pass PORT to override the default 18080; the shard
# servers listen on PORT+1 and PORT+2.
set -eu

PORT="${PORT:-18080}"
SHARD0_PORT=$((PORT + 1))
SHARD1_PORT=$((PORT + 2))
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== generating corpus"
go run ./cmd/semdisco-datagen -out "$TMP/corpus" -scale 0.05 -seed 7

go build -o "$TMP/semdisco-serve" ./cmd/semdisco-serve
serve() {
    log="$1"
    shift
    "$TMP/semdisco-serve" -dir "$TMP/corpus/tables" -method exs -dim 96 \
        "$@" >"$TMP/$log" 2>&1 &
    PIDS="$PIDS $!"
}

# waitup URL LOG PID: poll URL/healthz until it answers or PID exits.
waitup() {
    for _ in $(seq 1 150); do
        if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$3" 2>/dev/null; then break; fi
        sleep 0.2
    done
    echo "FAIL: server at $1 did not come up" >&2
    cat "$TMP/$2" >&2
    exit 1
}

echo "== starting two shard servers on :$SHARD0_PORT and :$SHARD1_PORT"
serve shard0.log -role shard -sets 2 -set 0 -addr "127.0.0.1:$SHARD0_PORT"
SHARD0_PID=$!
serve shard1.log -role shard -sets 2 -set 1 -addr "127.0.0.1:$SHARD1_PORT"
SHARD1_PID=$!
waitup "http://127.0.0.1:$SHARD0_PORT" shard0.log "$SHARD0_PID"
waitup "http://127.0.0.1:$SHARD1_PORT" shard1.log "$SHARD1_PID"

echo "== starting the coordinator on :$PORT"
serve coordinator.log -role coordinator \
    -peers "127.0.0.1:$SHARD0_PORT;127.0.0.1:$SHARD1_PORT" \
    -attempt-timeout 2s -trace-head-sample 1 -addr "127.0.0.1:$PORT"
COORD_PID=$!
waitup "$BASE" coordinator.log "$COORD_PID"

echo "== running traced search"
HDRS="$TMP/headers.txt"
RESP="$(curl -sf -D "$HDRS" -H 'Content-Type: application/json' \
    -d '{"query":"population of european countries","k":5}' "$BASE/v1/search")"
TRACE_ID="$(printf '%s' "$RESP" | jq -r '.trace_id')"
case "$TRACE_ID" in
    ????????????????????????????????) ;;
    *) echo "FAIL: response trace_id is not a 32-hex trace ID: '$TRACE_ID'" >&2; exit 1 ;;
esac
HDR_ID="$(tr -d '\r' <"$HDRS" | awk -F': ' 'tolower($1)=="x-trace-id"{print $2}')"
if [ "$HDR_ID" != "$TRACE_ID" ]; then
    echo "FAIL: X-Trace-Id header '$HDR_ID' != body trace_id '$TRACE_ID'" >&2
    exit 1
fi
if [ "$(printf '%s' "$RESP" | jq -r '.degraded // false')" != "false" ]; then
    echo "FAIL: search through two healthy shard servers came back degraded" >&2
    printf '%s\n' "$RESP" >&2
    exit 1
fi

echo "== fetching stored span tree for $TRACE_ID"
TRACE="$(curl -sf "$BASE/v1/debug/traces/$TRACE_ID")"
fail_tree() {
    echo "FAIL: $1" >&2
    printf '%s\n' "$TRACE" >&2
    exit 1
}
ROOT_NAME="$(printf '%s' "$TRACE" | jq -r '.tree[0].name')"
if [ "$ROOT_NAME" != "coordinator_search" ]; then
    fail_tree "span tree root is '$ROOT_NAME', want coordinator_search"
fi
for stage in encode scatter merge; do
    if ! printf '%s' "$TRACE" | jq -e --arg n "$stage" \
        '.tree[0].children[] | select(.name == $n)' >/dev/null; then
        fail_tree "span tree missing '$stage' under the root"
    fi
done
SHARD_SPANS="$(printf '%s' "$TRACE" | jq '[.tree[0].children[]
    | select(.name == "scatter")][0].children
    | map(select(.name == "shard")) | length')"
if [ "$SHARD_SPANS" -ne 2 ]; then
    fail_tree "scatter has $SHARD_SPANS shard spans, want 2 (one per replica set)"
fi
# Each set's winning replica continued the coordinator's traceparent, so
# its shard-side root comes back over the wire and joins the tree under
# the coordinator's root.
REMOTE_ROOTS="$(printf '%s' "$TRACE" | jq '[.tree[0].children[]
    | select(.name == "shard_encoded_search")] | length')"
if [ "$REMOTE_ROOTS" -ne 2 ]; then
    fail_tree "tree holds $REMOTE_ROOTS grafted shard_encoded_search spans, want 2"
fi

echo "== checking OpenMetrics exemplar"
if ! curl -sf -H 'Accept: application/openmetrics-text' "$BASE/metrics" \
    | grep -q "trace_id=\"$TRACE_ID\""; then
    echo "FAIL: no exemplar for trace $TRACE_ID on the OpenMetrics scrape" >&2
    exit 1
fi

echo "== checking the slow, costly and journal views"
for view in slow costly; do
    VIEW_ID="$(curl -sf "$BASE/v1/debug/$view?n=1" | jq -r '.traces[0].trace_id')"
    if [ "$VIEW_ID" != "$TRACE_ID" ]; then
        echo "FAIL: /v1/debug/$view?n=1 names trace '$VIEW_ID', want $TRACE_ID" >&2
        exit 1
    fi
done
JOURNAL_ID="$(curl -sf "$BASE/v1/debug/journal" | tail -n 1 | jq -r '.trace_id')"
if ! curl -sf "$BASE/v1/debug/traces/$JOURNAL_ID" >/dev/null; then
    echo "FAIL: last journal line's trace '$JOURNAL_ID' does not resolve at /v1/debug/traces/{id}" >&2
    exit 1
fi

echo "trace-smoke OK: trace $TRACE_ID stored with $SHARD_SPANS shard spans and $REMOTE_ROOTS grafted shard trees"
