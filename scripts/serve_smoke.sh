#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving subsystem:
#   1. boot qpserved (race-enabled build) on a random port over the
#      movie domain,
#   2. verify the streamed plan order is byte-identical to qporder's
#      for the same query, seed, algorithm, and measure,
#   3. exercise the tracing surface: traceparent round-trip, the explain
#      event, the /debug/requests flight recorder, and the -trace-out
#      NDJSON export analyzed by qptrace (zero parse errors required),
#   4. replay a concurrent shuffled burst through qpload (zero errors
#      required), check the session cache saw hits and that /metrics
#      aggregates the server/* and mediator/* phase spans,
#   5. scrape the OpenMetrics exposition (/metrics?format=openmetrics)
#      and the estimator-calibration surface (/debug/calibration, text
#      and JSON), failing on malformed output; the daemon also exports
#      calibration records into the same NDJSON file as its traces
#      (-calib-out = -trace-out), so step 3's qptrace run doubles as the
#      mixed-stream ingest check,
#   6. SIGTERM the daemon and require a clean drain.
# Used by `make serve-smoke` and the serve-smoke CI job.
set -eu

GO=${GO:-go}
WORKDIR=$(mktemp -d)

# cleanup runs on every exit path — success, failure, or interrupt. The
# daemon is killed (TERM, then KILL if it lingers) and reaped BEFORE the
# workdir is removed: deleting the logs first would race a daemon still
# writing to them, and an early-exit would leak the background process.
# On failure, the logs are preserved in SMOKE_ARTIFACT_DIR if set (CI
# uploads them as workflow artifacts).
cleanup() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$SMOKE_ARTIFACT_DIR"
        cp "$WORKDIR"/*.log "$WORKDIR"/*.json "$WORKDIR"/*.txt "$SMOKE_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    if [ -n "${SRV_PID:-}" ]; then
        kill -TERM "$SRV_PID" 2>/dev/null || true
        for _ in $(seq 1 50); do
            kill -0 "$SRV_PID" 2>/dev/null || break
            sleep 0.1
        done
        kill -KILL "$SRV_PID" 2>/dev/null || true
        wait "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

# FAIL_INJECT=1 exercises the cleanup path itself: exit mid-run with the
# daemon still up; the driver then asserts the process is gone.
FAIL_INJECT=${FAIL_INJECT:-}

QUERY='Q(M, R) :- play-in(A, M), review-of(R, M)'
SEED=1
ALGO=streamer
MEASURE=chain
K=6

echo "serve-smoke: building race-enabled binaries"
$GO build -race -o "$WORKDIR/qpserved" ./cmd/qpserved
$GO build -race -o "$WORKDIR/qpload" ./cmd/qpload
$GO build -o "$WORKDIR/qporder" ./cmd/qporder
$GO build -o "$WORKDIR/qptrace" ./cmd/qptrace
$GO run ./cmd/qpgen -preset movie > "$WORKDIR/movie.qp"

echo "serve-smoke: booting qpserved on a random port"
"$WORKDIR/qpserved" -f "$WORKDIR/movie.qp" -addr 127.0.0.1:0 -seed "$SEED" \
    -trace-out "$WORKDIR/traces.ndjson" -calib-out "$WORKDIR/traces.ndjson" \
    > "$WORKDIR/served.log" 2>&1 &
SRV_PID=$!

PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORKDIR/served.log")
    [ -n "$PORT" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { echo "serve-smoke: daemon died:"; cat "$WORKDIR/served.log"; exit 1; }
    sleep 0.2
done
[ -n "$PORT" ] || { echo "serve-smoke: no port in daemon log"; cat "$WORKDIR/served.log"; exit 1; }
URL="http://127.0.0.1:$PORT"
echo "serve-smoke: daemon is up at $URL"

curl -fsS "$URL/healthz" > /dev/null || { echo "serve-smoke: healthz failed"; exit 1; }

if [ -n "$FAIL_INJECT" ]; then
    echo "serve-smoke: FAIL_INJECT set, exiting mid-run with the daemon up (pid $SRV_PID)"
    echo "$SRV_PID" > "${FAIL_INJECT}"
    exit 42
fi

echo "serve-smoke: checking served plan order against qporder"
"$WORKDIR/qpload" -url "$URL" -q "$QUERY" -print-plans \
    -algo "$ALGO" -measure "$MEASURE" -k "$K" > "$WORKDIR/served_plans.txt"
"$WORKDIR/qporder" -f "$WORKDIR/movie.qp" -q "$QUERY" -plans-only \
    -algo "$ALGO" -measure "$MEASURE" -k "$K" -seed "$SEED" > "$WORKDIR/direct_plans.txt"
if ! diff -u "$WORKDIR/direct_plans.txt" "$WORKDIR/served_plans.txt"; then
    echo "serve-smoke: FAIL: served plan order diverges from qporder"
    exit 1
fi
[ -s "$WORKDIR/served_plans.txt" ] || { echo "serve-smoke: FAIL: no plans streamed"; exit 1; }
echo "serve-smoke: plan order is byte-identical ($(wc -l < "$WORKDIR/served_plans.txt" | tr -d ' ') plans)"

echo "serve-smoke: checking traceparent round-trip and the explain event"
TP='00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01'
TRACE_ID='0af7651916cd43dd8448eb211c80319c'
curl -fsS -D "$WORKDIR/explain_headers.txt" "$URL/v1/query" \
    -H "traceparent: $TP" \
    -d "{\"query\":\"$QUERY\",\"k\":$K,\"algorithm\":\"$ALGO\",\"measure\":\"$MEASURE\",\"explain\":true}" \
    > "$WORKDIR/explain_stream.ndjson"
grep -iq "^traceparent: 00-$TRACE_ID-" "$WORKDIR/explain_headers.txt" || {
    echo "serve-smoke: FAIL: response did not join the caller's trace:"
    cat "$WORKDIR/explain_headers.txt"
    exit 1
}
grep -q "\"event\":\"explain\"" "$WORKDIR/explain_stream.ndjson" || {
    echo "serve-smoke: FAIL: no explain event in the stream:"
    cat "$WORKDIR/explain_stream.ndjson"
    exit 1
}
grep -q "\"dom_won\"" "$WORKDIR/explain_stream.ndjson" || {
    echo "serve-smoke: FAIL: explain event carries no provenance:"
    cat "$WORKDIR/explain_stream.ndjson"
    exit 1
}
echo "serve-smoke: explain event present, trace ID joined"

echo "serve-smoke: checking the /debug/requests flight recorder"
curl -fsS "$URL/debug/requests?format=json" > "$WORKDIR/flight.json"
grep -q "$TRACE_ID" "$WORKDIR/flight.json" || {
    echo "serve-smoke: FAIL: flight recorder does not retain $TRACE_ID"
    exit 1
}
curl -fsS "$URL/debug/requests?trace=$TRACE_ID" > "$WORKDIR/one_trace.json"
grep -q "\"trace_id\": \"$TRACE_ID\"" "$WORKDIR/one_trace.json" || {
    echo "serve-smoke: FAIL: single-trace lookup failed for $TRACE_ID"
    exit 1
}
echo "serve-smoke: flight recorder retains the request"

echo "serve-smoke: analyzing the trace export with qptrace"
[ -s "$WORKDIR/traces.ndjson" ] || { echo "serve-smoke: FAIL: -trace-out wrote nothing"; exit 1; }
"$WORKDIR/qptrace" "$WORKDIR/traces.ndjson" > "$WORKDIR/qptrace.txt" || {
    echo "serve-smoke: FAIL: qptrace rejected the daemon's trace export:"
    cat "$WORKDIR/traces.ndjson"
    exit 1
}
grep -q "$TRACE_ID" "$WORKDIR/qptrace.txt" || {
    echo "serve-smoke: FAIL: qptrace report is missing $TRACE_ID:"
    cat "$WORKDIR/qptrace.txt"
    exit 1
}
grep -q "calibration records ingested" "$WORKDIR/qptrace.txt" || {
    echo "serve-smoke: FAIL: qptrace report is missing the calibration section:"
    cat "$WORKDIR/qptrace.txt"
    exit 1
}
echo "serve-smoke: qptrace ingested $(wc -l < "$WORKDIR/traces.ndjson" | tr -d ' ') mixed trace+calibration lines"

echo "serve-smoke: checking qporder -explain"
"$WORKDIR/qporder" -f "$WORKDIR/movie.qp" -q "$QUERY" \
    -algo "$ALGO" -measure "$MEASURE" -k "$K" -seed "$SEED" -explain \
    | grep -q "dom_won" || { echo "serve-smoke: FAIL: qporder -explain printed no provenance"; exit 1; }
echo "serve-smoke: qporder -explain prints provenance"

echo "serve-smoke: concurrent shuffled burst (48 sessions, 8 workers)"
"$WORKDIR/qpload" -url "$URL" -q "$QUERY" -n 48 -c 8 -k "$K" -shuffle \
    -algo "$ALGO" -measure "$MEASURE" -out "$WORKDIR/load_report.json"
grep -q '"schema_version": 1' "$WORKDIR/load_report.json" || {
    echo "serve-smoke: FAIL: qpload -out report lacks schema_version:"
    cat "$WORKDIR/load_report.json"
    exit 1
}

HITS=$(curl -fsS "$URL/metrics?format=json" \
    | sed -n 's/.*"server\.cache_hits": *\([0-9][0-9]*\).*/\1/p')
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || { echo "serve-smoke: FAIL: no session-cache hits (got '${HITS:-none}')"; exit 1; }
echo "serve-smoke: session cache hits: $HITS"

# Phase spans reach /metrics through the request traces' span ends.
curl -fsS "$URL/metrics?format=json" > "$WORKDIR/metrics.json"
for span in mediator/run mediator/order mediator/execute; do
    grep -q "\"name\": \"$span\"" "$WORKDIR/metrics.json" || {
        echo "serve-smoke: FAIL: /metrics has no $span span row:"
        cat "$WORKDIR/metrics.json"
        exit 1
    }
done
echo "serve-smoke: /metrics aggregates the request-trace phase spans"

echo "serve-smoke: scraping the OpenMetrics exposition"
curl -fsS -D "$WORKDIR/om_headers.txt" "$URL/metrics?format=openmetrics" > "$WORKDIR/metrics.om"
grep -iq "^content-type: application/openmetrics-text" "$WORKDIR/om_headers.txt" || {
    echo "serve-smoke: FAIL: wrong Content-Type for OpenMetrics:"
    cat "$WORKDIR/om_headers.txt"
    exit 1
}
[ "$(tail -n 1 "$WORKDIR/metrics.om")" = "# EOF" ] || {
    echo "serve-smoke: FAIL: OpenMetrics exposition is not terminated by # EOF:"
    tail -n 3 "$WORKDIR/metrics.om"
    exit 1
}
for want in "^# TYPE server_requests counter" "^server_requests_total " \
    "^# TYPE runtime_heap_bytes gauge" "^calib_plan_qerror"; do
    grep -q "$want" "$WORKDIR/metrics.om" || {
        echo "serve-smoke: FAIL: OpenMetrics exposition is missing '$want':"
        cat "$WORKDIR/metrics.om"
        exit 1
    }
done
echo "serve-smoke: OpenMetrics exposition is well-formed ($(wc -l < "$WORKDIR/metrics.om" | tr -d ' ') lines)"

echo "serve-smoke: scraping /debug/calibration"
curl -fsS "$URL/debug/calibration" > "$WORKDIR/calib.txt"
grep -q "per-plan (utility at selection vs execution outcome)" "$WORKDIR/calib.txt" || {
    echo "serve-smoke: FAIL: /debug/calibration has no per-plan accounting:"
    cat "$WORKDIR/calib.txt"
    exit 1
}
curl -fsS "$URL/debug/calibration?format=json" > "$WORKDIR/calib.json"
grep -q '"drift_factor"' "$WORKDIR/calib.json" || {
    echo "serve-smoke: FAIL: /debug/calibration?format=json is malformed:"
    cat "$WORKDIR/calib.json"
    exit 1
}
echo "serve-smoke: calibration surface reports estimate-vs-actual accounting"

echo "serve-smoke: draining via SIGTERM"
kill -TERM "$SRV_PID"
DRAINED=1
for _ in $(seq 1 100); do
    if ! kill -0 "$SRV_PID" 2>/dev/null; then DRAINED=0; break; fi
    sleep 0.2
done
if [ "$DRAINED" -ne 0 ]; then
    echo "serve-smoke: FAIL: daemon did not exit after SIGTERM"
    cat "$WORKDIR/served.log"
    exit 1
fi
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
grep -q "drained cleanly" "$WORKDIR/served.log" || {
    echo "serve-smoke: FAIL: no clean-drain marker in daemon log:"
    cat "$WORKDIR/served.log"
    exit 1
}
if grep -iq "DATA RACE" "$WORKDIR/served.log"; then
    echo "serve-smoke: FAIL: race detected in daemon log:"
    cat "$WORKDIR/served.log"
    exit 1
fi
echo "serve-smoke: PASS"
