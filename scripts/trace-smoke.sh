#!/bin/sh
# trace-smoke: end-to-end check of the tracing subsystem against a real
# server. Generates a small corpus, serves it as a 4-shard hedged cluster
# with every trace retained, runs one search, and asserts that:
#
#   1. the response body and X-Trace-Id header carry the same trace ID,
#   2. /v1/debug/traces/{id} returns the stored span tree with a
#      cluster_search root and one shard span per shard under scatter,
#   3. the OpenMetrics scrape carries an exemplar naming that trace ID,
#   4. the retained-query views answer on a cluster: /v1/debug/slow?n=1
#      and /v1/debug/costly?n=1 name that trace, and the trace_id on the
#      last /v1/debug/journal line resolves at /v1/debug/traces/{id}.
#
# Needs curl and jq. Pass PORT to override the default 18080.
set -eu

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== generating corpus"
go run ./cmd/semdisco-datagen -out "$TMP/corpus" -scale 0.05 -seed 7

echo "== starting 4-shard server on :$PORT"
go build -o "$TMP/semdisco-serve" ./cmd/semdisco-serve
"$TMP/semdisco-serve" -dir "$TMP/corpus/tables" -method exs -dim 96 \
    -addr "127.0.0.1:$PORT" -shards 4 -hedge -shard-timeout 500ms \
    -trace-head-sample 1 >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

up=""
for _ in $(seq 1 150); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then break; fi
    sleep 0.2
done
if [ -z "$up" ]; then
    echo "FAIL: server did not come up" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

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

echo "== fetching stored span tree for $TRACE_ID"
TRACE="$(curl -sf "$BASE/v1/debug/traces/$TRACE_ID")"
ROOT_NAME="$(printf '%s' "$TRACE" | jq -r '.tree[0].name')"
if [ "$ROOT_NAME" != "cluster_search" ]; then
    echo "FAIL: span tree root is '$ROOT_NAME', want cluster_search" >&2
    printf '%s\n' "$TRACE" >&2
    exit 1
fi
for stage in encode scatter merge; do
    if ! printf '%s' "$TRACE" | jq -e --arg n "$stage" \
        '.tree[0].children[] | select(.name == $n)' >/dev/null; then
        echo "FAIL: span tree missing '$stage' under the root" >&2
        printf '%s\n' "$TRACE" >&2
        exit 1
    fi
done
SHARD_SPANS="$(printf '%s' "$TRACE" | jq '[.tree[0].children[]
    | select(.name == "scatter")][0].children
    | map(select(.name == "shard")) | length')"
if [ "$SHARD_SPANS" -lt 4 ]; then
    echo "FAIL: scatter has $SHARD_SPANS shard spans, want >= 4" >&2
    printf '%s\n' "$TRACE" >&2
    exit 1
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

echo "trace-smoke OK: trace $TRACE_ID stored with $SHARD_SPANS shard spans"
