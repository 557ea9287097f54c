#!/bin/sh
# determinism_check.sh: CI proof that diagnosis reports are bit-identical
# across every execution strategy of the parallel engine. Generates a
# multi-defect device, then diffs `mddiag` output across worker counts
# (-j 1/4/8) and cone-cache states (uncached, a warm cache, and a
# 32-entry cache — one entry per shard — in which nearly every fill
# evicts, so CPT and scoring refill evicted flips concurrently), against
# the sequential uncached report as reference, and diffs the flight
# recorder's `-explain-out` JSONL at -j 4/8 against -j 1 (extraction and
# refinement run their worker pools with the recorder attached and emit
# its events afterwards, in order). Any diff is a determinism regression
# in chunked scoring, parallel extraction or refinement, or the flip
# store's fill, replay and eviction. Run via `make determinism-check`.
set -eu

BIN=${BIN:-bin}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# A 1000-gate circuit with 3 injected defects: big enough that scoring
# spans many chunks per worker, small enough to finish in seconds.
"$BIN/mdgen" -kind rand -gates 1000 -pis 24 -pos 20 -seed 9 -o "$WORK/c.bench"
"$BIN/mdatpg" -c "$WORK/c.bench" -o "$WORK/pats.txt" -seed 9
"$BIN/mdinject" -c "$WORK/c.bench" -p "$WORK/pats.txt" -n 3 -seed 42 -o "$WORK/dev.datalog"

run_mddiag() {
    # Elapsed timing is the one legitimately nondeterministic report
    # field; strip it before diffing.
    "$BIN/mddiag" -c "$WORK/c.bench" -p "$WORK/pats.txt" -d "$WORK/dev.datalog" "$@" \
        | sed 's/; elapsed .*//'
}

run_mddiag -j 1 -explain-out "$WORK/explain1.jsonl" > "$WORK/ref.txt"
if ! grep -q 'multiplet' "$WORK/ref.txt"; then
    echo "determinism_check: reference report looks empty" >&2
    cat "$WORK/ref.txt" >&2
    exit 1
fi

fail=0
for j in 4 8; do
    run_mddiag -j "$j" -explain-out "$WORK/explain$j.jsonl" > "$WORK/j$j.txt"
    if ! diff -u "$WORK/ref.txt" "$WORK/j$j.txt" > "$WORK/diff.txt"; then
        echo "determinism_check: -j $j report differs from -j 1:" >&2
        cat "$WORK/diff.txt" >&2
        fail=1
    fi
    if ! diff -u "$WORK/explain1.jsonl" "$WORK/explain$j.jsonl" > "$WORK/diff.txt"; then
        echo "determinism_check: -j $j explain JSONL differs from -j 1:" >&2
        head -n 40 "$WORK/diff.txt" >&2
        fail=1
    fi
done
for j in 1 4 8; do
    run_mddiag -j "$j" -conecache 1048576 > "$WORK/warm$j.txt"
    if ! diff -u "$WORK/ref.txt" "$WORK/warm$j.txt" > "$WORK/diff.txt"; then
        echo "determinism_check: -j $j warm-cache report differs from uncached -j 1:" >&2
        cat "$WORK/diff.txt" >&2
        fail=1
    fi
    run_mddiag -j "$j" -conecache 32 > "$WORK/thrash$j.txt"
    if ! diff -u "$WORK/ref.txt" "$WORK/thrash$j.txt" > "$WORK/diff.txt"; then
        echo "determinism_check: -j $j thrashing-cache report differs from uncached -j 1:" >&2
        cat "$WORK/diff.txt" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "determinism_check: reports bit-identical across -j 1/4/8, uncached, warm-cached and with a thrashing cache; explain JSONL bit-identical across -j 1/4/8"
