#!/bin/sh
# vol_smoke.sh: end-to-end proof of the volume-diagnosis pipeline. Run
# via `make vol-smoke`.
#
# The script generates a pinned synthetic datalog stream (mdgen
# -datalogs, fixed seed, 90% repeats), ingests it through mdvol at
# different worker counts and cache states, and requires:
#
#   1. byte-identical per-device reports and fleet summaries across
#      -j 1 / -j 4 and a repeated -j 4 run (the determinism contract,
#      held through the dedupe cache);
#   2. a dedupe ratio worthy of the stream (>= 0.5 on 90% repeats);
#   3. the cache-disabled run (-cache -1) produces the same reports and
#      the same aggregate — dedupe is a pure optimization;
#   4. the same stream POSTed to a live mdserve /v1/ingest lands on the
#      same fleet aggregate (checked via mdgate volume).
set -eu

MDGEN=${MDGEN:-bin/mdgen}
MDVOL=${MDVOL:-bin/mdvol}
MDSERVE=${MDSERVE:-bin/mdserve}
MDGATE=${MDGATE:-bin/mdgate}
WORK=$(mktemp -d)
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() { echo "vol_smoke: $1" >&2; exit 1; }

STREAM="$WORK/stream.jsonl"
"$MDGEN" -datalogs 200 -workload c17 -repeat 0.9 -sites 4 -seed 7 \
    -o "$STREAM" 2>"$WORK/mdgen.log" || { cat "$WORK/mdgen.log"; fail "mdgen -datalogs failed"; }
[ "$(wc -l < "$STREAM")" = 200 ] || fail "stream has $(wc -l < "$STREAM") records, want 200"

ingest() { # ingest <tag> <extra mdvol flags...>
    tag=$1; shift
    "$MDVOL" -in "$STREAM" -workload c17 "$@" \
        -reports-out "$WORK/reports_$tag.jsonl" \
        -summary-out "$WORK/summary_$tag.json" \
        2>"$WORK/mdvol_$tag.log" \
        || { cat "$WORK/mdvol_$tag.log"; fail "mdvol ($tag) failed"; }
}

ingest j1 -j 1
ingest j4 -j 4
ingest j4b -j 4
ingest nocache -j 4 -cache -1

# 1. Determinism: reports and summaries identical across worker counts
# and across runs.
cmp -s "$WORK/reports_j1.jsonl" "$WORK/reports_j4.jsonl" \
    || fail "per-device reports differ between -j 1 and -j 4"
cmp -s "$WORK/reports_j4.jsonl" "$WORK/reports_j4b.jsonl" \
    || fail "per-device reports differ between two -j 4 runs"
cmp -s "$WORK/summary_j1.json" "$WORK/summary_j4.json" \
    || fail "fleet summaries differ between -j 1 and -j 4"
cmp -s "$WORK/summary_j4.json" "$WORK/summary_j4b.json" \
    || fail "fleet summaries differ between two -j 4 runs"

# 2. The stream repeats, so dedupe must bite: ratio >= 0.5.
RATIO=$(sed -n 's/.*"dedupe_ratio": *\([0-9.]*\).*/\1/p' "$WORK/summary_j4.json")
[ -n "$RATIO" ] || fail "summary carries no dedupe_ratio: $(cat "$WORK/summary_j4.json")"
awk "BEGIN{exit !($RATIO >= 0.5)}" \
    || fail "dedupe ratio $RATIO < 0.5 on a 90%-repeat stream"

# 3. Dedupe is a pure optimization: cache off, same reports, same
# aggregate (the summary's dedupe ratio reflects syndrome repetition in
# the stream, not cache behaviour, so even it must match).
cmp -s "$WORK/reports_j4.jsonl" "$WORK/reports_nocache.jsonl" \
    || fail "per-device reports change when the fingerprint cache is disabled"
cmp -s "$WORK/summary_j4.json" "$WORK/summary_nocache.json" \
    || fail "fleet summary changes when the fingerprint cache is disabled"

# The trend gate agrees with itself on identical summaries.
"$MDGATE" volume "$WORK/summary_j1.json" "$WORK/summary_j4.json" \
    >"$WORK/compare_cli.log" 2>&1 \
    || { cat "$WORK/compare_cli.log"; fail "mdgate volume flagged identical summaries"; }

# 4. Serving path: the same stream through a live mdserve /v1/ingest
# must land on the same fleet aggregate.
if ! command -v curl >/dev/null 2>&1; then
    echo "vol_smoke: OK (dedupe ratio $RATIO; curl not installed, serve leg skipped)"
    exit 0
fi

LOG="$WORK/mdserve.log"
: >"$LOG" # exists before the listen-line poll, which runs under set -e
"$MDSERVE" -addr 127.0.0.1:0 -workload c17 >"$LOG" 2>&1 &
PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^mdserve: listening on //p' "$LOG")
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { cat "$LOG"; fail "mdserve died at startup"; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$LOG"; fail "no listen line after 5s"; }
URL="http://$ADDR"

code=$(curl -s -o "$WORK/ingest_reply.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/x-ndjson' \
    --data-binary @"$STREAM" "$URL/v1/ingest?workload=c17")
[ "$code" = 200 ] || fail "/v1/ingest returned $code: $(cat "$WORK/ingest_reply.json")"
grep -q '"shed":0' "$WORK/ingest_reply.json" \
    || fail "ingest shed records: $(cat "$WORK/ingest_reply.json")"
DEDUPED=$(sed -n 's/.*"deduped":\([0-9]*\).*/\1/p' "$WORK/ingest_reply.json")
[ -n "$DEDUPED" ] && [ "$DEDUPED" -gt 100 ] \
    || fail "serve-path dedupe did not bite: $(cat "$WORK/ingest_reply.json")"

curl -s "$URL/v1/volume/summary?workload=c17" >"$WORK/summary_serve.json"
"$MDGATE" volume "$WORK/summary_j4.json" "$WORK/summary_serve.json" \
    >"$WORK/compare_serve.log" 2>&1 \
    || { cat "$WORK/compare_serve.log"; fail "serve-path aggregate diverges from the CLI aggregate"; }

kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "mdserve did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "$PID" || fail "mdserve exited non-zero after SIGTERM"
PID=""

echo "vol_smoke: OK (dedupe ratio $RATIO, serve-path deduped $DEDUPED/200)"
