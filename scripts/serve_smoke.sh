#!/bin/sh
# serve_smoke.sh: end-to-end proof that mdserve boots, serves, exposes
# metrics, and drains cleanly on SIGTERM. Run via `make serve-smoke`.
#
# The script starts mdserve on an ephemeral port with the c17 and add16
# workloads, fires a burst of diagnose requests (including one batch and
# one explained request), checks /metrics for the serve metric family,
# then SIGTERMs the daemon and requires a clean exit with a service
# record written that the service gate (mdgate serve) accepts against
# itself. Requires curl.
set -eu

if ! command -v curl >/dev/null 2>&1; then
    echo "serve_smoke: curl not installed, skipping" >&2
    exit 0
fi

BIN=${BIN:-bin/mdserve}
MDGATE=${MDGATE:-bin/mdgate}
WORK=$(mktemp -d)
LOG="$WORK/mdserve.log"
REC="$WORK/serve_record.json"
PID2=""
trap 'kill "$PID" 2>/dev/null || true; [ -n "$PID2" ] && kill "$PID2" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# -trace-sample 1 retains every request's span tree so the /debug/trace
# assertion below is deterministic. -prof enables the continuous
# profiler (scraped below at /debug/prof), and -debug-addr boots the
# pprof debug server for the mutex-profile scrape. The log exists before
# the listen-line poll, which runs under set -e.
: >"$LOG"
"$BIN" -addr 127.0.0.1:0 -workload c17 -workload add16 \
    -max-batch 4 -queue-depth 16 -service-record-out "$REC" \
    -trace-sample 1 -trace-spans-out "$WORK/traces.jsonl" \
    -prof -debug-addr 127.0.0.1:0 \
    >"$LOG" 2>&1 &
PID=$!

# Wait for the listen line (it carries the bound port).
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^mdserve: listening on //p' "$LOG")
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "serve_smoke: mdserve died at startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve_smoke: no listen line after 5s:"; cat "$LOG"; exit 1; }
URL="http://$ADDR"

fail() { echo "serve_smoke: $1" >&2; cat "$LOG" >&2; exit 1; }

code=$(curl -s -o /dev/null -w '%{http_code}' "$URL/healthz")
[ "$code" = 200 ] || fail "healthz returned $code"
code=$(curl -s -o /dev/null -w '%{http_code}' "$URL/readyz")
[ "$code" = 200 ] || fail "readyz returned $code"

# A deterministic c17 single-fail response: pattern 7 failing PO 0.
REQ='{"workload":"c17","response":{"fails":[{"pattern":7,"pos":[0]}]}}'
BATCH='{"workload":"c17","devices":[{"response":{"fails":[{"pattern":7,"pos":[0]}]}},{"response":{"fails":[]}}]}'

# Burst of concurrent requests; every one must come back 200. Wait on
# the curl PIDs explicitly — a bare `wait` would also wait on mdserve.
CURLS=""
for i in 1 2 3 4 5 6 7 8; do
    curl -s -o "$WORK/resp_$i" -w '%{http_code}\n' \
        -X POST -d "$REQ" "$URL/v1/diagnose" >"$WORK/code_$i" &
    CURLS="$CURLS $!"
done
for p in $CURLS; do wait "$p"; done
for i in 1 2 3 4 5 6 7 8; do
    code=$(cat "$WORK/code_$i")
    [ "$code" = 200 ] || fail "diagnose request $i returned $code: $(cat "$WORK/resp_$i")"
    grep -q '"multiplet"' "$WORK/resp_$i" || fail "request $i returned no multiplet"
done

code=$(curl -s -o "$WORK/batch" -w '%{http_code}' -X POST -d "$BATCH" "$URL/v1/diagnose/batch")
[ "$code" = 200 ] || fail "batch returned $code: $(cat "$WORK/batch")"
code=$(curl -s -o "$WORK/explain" -w '%{http_code}' -X POST -d "$REQ" "$URL/v1/diagnose?explain=1")
[ "$code" = 200 ] || fail "explain returned $code"
grep -q '"explain"' "$WORK/explain" || fail "explain=1 returned no narrative"

curl -s "$URL/v1/workloads" | grep -q '"c17"' || fail "workloads missing c17"
curl -s "$URL/metrics" >"$WORK/metrics"
for m in multidiag_serve_requests multidiag_serve_batches multidiag_serve_service_us_count; do
    grep -q "^$m" "$WORK/metrics" || fail "/metrics missing $m"
done

# Tail-captured request traces: after the burst, /debug/trace must hold
# schema-valid span trees that cover the whole request path.
curl -s "$URL/debug/trace" >"$WORK/traces"
[ -s "$WORK/traces" ] || fail "/debug/trace returned no traces at sample rate 1"
grep -q '"schema":"mdtrace/v1"' "$WORK/traces" || fail "/debug/trace records missing mdtrace/v1 schema"
for span in serve.request serve.execute diagnose score fsim.worker; do
    grep -q "\"name\":\"$span\"" "$WORK/traces" || fail "/debug/trace trees missing a $span span"
done
if [ -x bin/mdtrace ]; then
    bin/mdtrace "$WORK/traces" >"$WORK/mdtrace_report" || fail "mdtrace could not analyze /debug/trace output"
    grep -q 'critical path' "$WORK/mdtrace_report" || fail "mdtrace report missing critical path"
fi

# Continuous profiler: after the burst, /debug/prof must stream
# mdprof/v1 snapshots whose phase tables cover the request path.
curl -s "$URL/debug/prof" >"$WORK/prof"
[ -s "$WORK/prof" ] || fail "/debug/prof returned no snapshots with -prof"
grep -q '"schema":"mdprof/v1"' "$WORK/prof" || fail "/debug/prof records missing mdprof/v1 schema"
for phase in score extract; do
    grep -q "\"name\":\"$phase\"" "$WORK/prof" || fail "/debug/prof phase table missing $phase"
done
if [ -x bin/mdprof ]; then
    bin/mdprof report "$WORK/prof" >"$WORK/mdprof_report" || fail "mdprof could not analyze /debug/prof output"
    grep -q 'score' "$WORK/mdprof_report" || fail "mdprof report missing the score phase"
fi

# The obs debug server (pprof mux) also carries /debug/prof plus the
# contention endpoints; its bound address is on the startup log line.
DEBUG_ADDR=$(sed -n 's|^mdserve: debug server on http://\(.*\)/debug/pprof/$|\1|p' "$LOG")
[ -n "$DEBUG_ADDR" ] || fail "no debug server line in log with -debug-addr"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$DEBUG_ADDR/debug/pprof/mutex")
[ "$code" = 200 ] || fail "/debug/pprof/mutex returned $code"
curl -s "http://$DEBUG_ADDR/debug/prof" | grep -q '"schema":"mdprof/v1"' \
    || fail "debug-mux /debug/prof missing mdprof/v1 schema"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "mdserve did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID" && rc=0 || rc=$?
[ "$rc" = 0 ] || fail "mdserve exited $rc after SIGTERM"
grep -q "mdserve: drained" "$LOG" || fail "no drain confirmation in log"
[ -s "$REC" ] || fail "service record not written"
grep -q '"requests": 11' "$REC" || fail "service record miscounted requests: $(cat "$REC")"
# The service gate agrees with itself on the record just written.
"$MDGATE" serve "$REC" "$REC" >"$WORK/gate_serve.log" 2>&1 \
    || { cat "$WORK/gate_serve.log"; fail "mdgate serve flagged the service record against itself"; }
[ -s "$WORK/traces.jsonl" ] || fail "-trace-spans-out sink not written"

# Incident observatory leg: a second instance armed with -incident-dir
# and -max-inflight 1 is forced to shed deterministically — a batch's
# devices are admitted sequentially before any completes, so the second
# device of a two-device batch always sheds — and the shed must spool a
# replayable bundle. Separate instance so the main run's request-count
# assertion above stays exact.
INCDIR="$WORK/incidents"
LOG2="$WORK/mdserve2.log"
: >"$LOG2"
"$BIN" -addr 127.0.0.1:0 -workload c17 -max-inflight 1 \
    -incident-dir "$INCDIR" -incident-min-interval 0 \
    >"$LOG2" 2>&1 &
PID2=$!
ADDR2=""
for _ in $(seq 1 50); do
    ADDR2=$(sed -n 's/^mdserve: listening on //p' "$LOG2")
    [ -n "$ADDR2" ] && break
    kill -0 "$PID2" 2>/dev/null || { echo "serve_smoke: incident mdserve died at startup:"; cat "$LOG2"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR2" ] || { echo "serve_smoke: incident instance: no listen line after 5s:"; cat "$LOG2"; exit 1; }
URL2="http://$ADDR2"

code=$(curl -s -o "$WORK/shed_batch" -w '%{http_code}' -X POST -d "$BATCH" "$URL2/v1/diagnose/batch")
[ "$code" = 200 ] || fail "incident batch returned $code: $(cat "$WORK/shed_batch")"
grep -q '"error"' "$WORK/shed_batch" || fail "incident batch shed no device at -max-inflight 1"

BUNDLE=$(ls "$INCDIR"/incident-*-shed.json 2>/dev/null | head -1)
[ -n "$BUNDLE" ] || fail "shed spooled no incident bundle in $INCDIR"
grep -q '"schema": "mdincident/v1"' "$BUNDLE" || fail "bundle missing mdincident/v1 schema"
curl -s "$URL2/debug/incidents" >"$WORK/incidents_index"
grep -q '"trigger":"shed"' "$WORK/incidents_index" || fail "/debug/incidents does not index the shed bundle"

# Replay the bundle offline: byte-identical reports at -j 1, 4 and 8.
if [ -x bin/mdreplay ]; then
    bin/mdreplay -verify "$BUNDLE" >"$WORK/replay_report" \
        || fail "mdreplay -verify failed on $BUNDLE: $(cat "$WORK/replay_report")"
    grep -q 'PASS' "$WORK/replay_report" || fail "mdreplay -verify did not report PASS"
fi

kill -TERM "$PID2"
i=0
while kill -0 "$PID2" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "incident mdserve did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID2" || fail "incident mdserve exited non-zero after SIGTERM"
PID2=""

echo "serve_smoke: OK ($(sed -n 's/.*"service_p95_ms": //p' "$REC" | tr -d ',') ms p95)"
