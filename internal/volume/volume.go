// Package volume is the volume-diagnosis pipeline: streaming ingestion of
// tester datalogs at fleet scale, syndrome-fingerprint deduplication in
// front of the core engine, and incremental fleet aggregation.
//
// The production scenario is yield learning: a tester floor emits millions
// of failing-device datalogs a day, and most are *repeats* of the same
// underlying defect signature. Re-diagnosing each from scratch wastes
// nearly all of the engine's capacity, so the pipeline:
//
//   - canonicalizes each device's observed failing behaviour into a stable
//     syndrome fingerprint (see FingerprintDatalog) — identical syndromes
//     fingerprint identically regardless of wire format, field order or
//     worker scheduling;
//
//   - answers repeated fingerprints from a bounded, sharded
//     fingerprint→report cache (see Cache) without touching the engine,
//     with singleflight claiming so concurrent first arrivals of one
//     syndrome trigger exactly one diagnosis (see Dedupe);
//
//   - folds every device — deduped or not — into an incremental fleet
//     aggregate (see Aggregator): per-site suspect Pareto tables,
//     defect-class trend series and dedupe-ratio stats, emitted as a
//     deterministic JSON summary that mdgate volume compares.
//
// Determinism contract: a cached report is the byte-identical JSON a
// direct core.Diagnose of the same datalog would render (the report core
// excludes every timing and join field — see Report), and the aggregate
// summary is a pure function of the input record multiset, so it is
// byte-identical across runs, worker counts and cache states (as long as
// the cache does not evict; eviction only costs extra engine runs, never
// changes an answer).
//
// cmd/mdvol is the streaming CLI (bounded-memory JSONL ingestion with
// blocking backpressure); internal/serve mounts the same pipeline as
// POST /v1/ingest behind its admission control (429 + Retry-After).
package volume

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"multidiag/internal/bitset"
	"multidiag/internal/netlist"
	"multidiag/internal/tester"
)

// Record is one datalog-stream entry (the mdvol/v1 JSONL wire format):
// one tested device's observed failing behaviour plus its fleet context.
// Exactly one of Fails (structured) or Datalog (the tester text format)
// carries the behaviour; a record with neither is a passing device.
type Record struct {
	// DeviceID identifies the tested die ("lot7-wafer3-x12y4"); it joins
	// per-device reports back to the stream and never affects dedupe.
	DeviceID string `json:"device_id"`
	// Site is the fleet grouping key (tester, fab line, wafer region…);
	// empty lands in the summary's "" site row.
	Site string `json:"site,omitempty"`
	// Workload names the registered (circuit, test set); optional when the
	// consumer is bound to a single workload (mdvol, or ?workload= on the
	// ingest endpoint).
	Workload string `json:"workload,omitempty"`
	// TS is an optional test timestamp (Unix seconds). When every record
	// carries one, trend buckets are time-based; otherwise they follow the
	// stream ordinal. Mixing the two within one stream is rejected.
	TS int64 `json:"ts,omitempty"`
	// Fails lists the failing (pattern, POs) observations.
	Fails []PatternFails `json:"fails,omitempty"`
	// Datalog is the tester text serialization, the alternative to Fails.
	Datalog string `json:"datalog,omitempty"`
}

// PatternFails is one failing pattern and its failing primary outputs
// (indices into the circuit's PO list).
type PatternFails struct {
	Pattern int   `json:"pattern"`
	POs     []int `json:"pos"`
}

// BuildDatalog materializes the record's behaviour as a tester datalog
// shaped for the workload, validating bounds so a malformed record fails
// parsing rather than the engine. Patterns with no failing POs are
// normalized away (they are passing patterns), so structurally different
// encodings of one syndrome build identical datalogs.
func (r *Record) BuildDatalog(c *netlist.Circuit, numPatterns int) (*tester.Datalog, error) {
	if r.Datalog != "" && len(r.Fails) > 0 {
		return nil, fmt.Errorf("record carries both datalog text and structured fails")
	}
	if r.Datalog != "" {
		log, err := tester.ReadDatalogFor(strings.NewReader(r.Datalog), numPatterns, len(c.POs))
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		return log, nil
	}
	log := &tester.Datalog{
		CircuitName: c.Name,
		NumPatterns: numPatterns,
		NumPOs:      len(c.POs),
		Fails:       make(map[int]bitset.Set),
	}
	for _, pf := range r.Fails {
		if pf.Pattern < 0 || pf.Pattern >= numPatterns {
			return nil, fmt.Errorf("failing pattern %d out of range [0,%d)", pf.Pattern, numPatterns)
		}
		set, ok := log.Fails[pf.Pattern]
		if !ok {
			set = bitset.New(len(c.POs))
			log.Fails[pf.Pattern] = set
		}
		for _, po := range pf.POs {
			if po < 0 || po >= len(c.POs) {
				return nil, fmt.Errorf("pattern %d: failing PO %d out of range [0,%d)", pf.Pattern, po, len(c.POs))
			}
			set.Add(po)
		}
	}
	for p, set := range log.Fails {
		if set.Empty() {
			delete(log.Fails, p)
		}
	}
	return log, nil
}

// RecordReader scans a JSONL datalog stream one record at a time, so a
// million-device stream never materializes in memory. Blank lines and
// #-comments are skipped; errors carry the line number.
type RecordReader struct {
	sc   *bufio.Scanner
	line int
}

// NewRecordReader wraps r (the caller handles decompression; cmd/mdvol
// transparently ungzips .gz paths). Lines up to 8 MiB are accepted —
// datalogs of the largest built-in workloads are far below this.
func NewRecordReader(r io.Reader) *RecordReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	return &RecordReader{sc: sc}
}

// Next returns the next record, its raw byte length (the admission-byte
// unit on the serving path) and io.EOF at end of stream.
func (rr *RecordReader) Next() (*Record, int, error) {
	for rr.sc.Scan() {
		rr.line++
		text := strings.TrimSpace(rr.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, 0, fmt.Errorf("volume: line %d: %v", rr.line, err)
		}
		return &rec, len(text), nil
	}
	if err := rr.sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("volume: line %d: %w", rr.line, err)
	}
	return nil, 0, io.EOF
}

// Line reports the last line number consumed (for error context).
func (rr *RecordReader) Line() int { return rr.line }
