package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"multidiag/internal/cio"
	"multidiag/internal/core"
	"multidiag/internal/obs"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
	"multidiag/internal/volume"
)

// vol-b0300: the mdvol path. One volume.Ingester.Run (default workers
// and cache) reads the seeded JSONL stream; per-device report lines go to
// a hashing writer and volume.WriteSummary runs at the end.
//
// A record's own hand-over-to-report time is set by the ingester's
// pipeline depth (records queue behind the rare engine run ahead of them
// in the ordered sink), so vol's latency metrics are the time per report
// line over consecutive windows of volWindow lines: the per-device cost
// a consumer of the report stream sees.
const volWindow = 1000

// lineSink is the ingester's Reports writer: it keeps a hash of each
// report line and the time the line came out. The ingester's ordered
// sink is its only writer.
type lineSink struct {
	seed    maphash.Seed
	partial []byte
	hashes  []uint64
	at      []time.Time
	tamper  func(i int, line []byte) []byte
}

func (s *lineSink) Write(p []byte) (int, error) {
	now := time.Now()
	rest := p
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			s.partial = append(s.partial, rest...)
			break
		}
		line := rest[:i+1]
		if len(s.partial) > 0 {
			line = append(s.partial, line...)
			s.partial = nil
		}
		if s.tamper != nil {
			line = s.tamper(len(s.hashes), line)
		}
		s.hashes = append(s.hashes, maphash.Bytes(s.seed, line))
		s.at = append(s.at, now)
		rest = rest[i+1:]
	}
	return len(p), nil
}

// volRef is the reference for one device of the stream.
type volRef struct {
	fp   volume.Fingerprint
	res  *core.Result
	rep  *volume.Report
	json []byte
}

func (b *bench) runVol(traced bool) (*passResult, error) {
	p := newPass()
	var (
		tr    *obs.Trace
		epoch time.Time
	)
	if traced {
		epoch = time.Now()
		tr = obs.New(b.workload)
	}
	sink := &lineSink{seed: maphash.MakeSeed(), tamper: b.tamper}
	streamPath := filepath.Join(b.dir, b.man.Stream)
	var (
		in                   *volume.Ingester
		setups               []float64
		loadCircuit, readPat time.Duration
	)
	for k := 0; k < b.plan.setups; k++ {
		t0 := time.Now()
		c, _, err := cio.LoadCircuit(filepath.Join(b.dir, b.man.Circuit), false)
		if err != nil {
			return nil, err
		}
		loadCircuit = time.Since(t0)
		t1 := time.Now()
		f, err := os.Open(filepath.Join(b.dir, b.man.Patterns))
		if err != nil {
			return nil, err
		}
		pats, err := tester.ReadPatterns(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		readPat = time.Since(t1)
		in, err = volume.NewIngester(volume.IngestConfig{
			Workload: c.Name, Circuit: c, Patterns: pats, Reports: sink, Trace: tr,
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var bt *trace.Tree
	if traced {
		bt = trace.NewTree(trace.TraceID{})
		bt.SetAttr("workload", b.workload)
	}
	var summary bytes.Buffer
	u0 := readUsage()
	start := time.Now()
	root := bt.Start("bench.vol")
	sp := root.Start("volume.Ingester.Run")
	// Like mdvol -in, the ingester reads the stream file as it goes.
	var sum *volume.Summary
	f, runErr := os.Open(streamPath)
	if runErr == nil {
		sum, runErr = in.Run(context.Background(), volume.NewRecordReader(f))
		f.Close()
	}
	sp.End()
	ingest := time.Since(start)
	if runErr == nil {
		sp = root.Start("volume.WriteSummary")
		runErr = volume.WriteSummary(&summary, sum)
		sp.End()
	}
	root.End()
	wall := time.Since(start)
	u1 := readUsage()

	// The report check (untimed): every line against the reference
	// diagnosis of its syndrome, and the summary against one folded from
	// the reference reports.
	chk, err := b.volCheck(sink, runErr == nil)
	if err != nil {
		return nil, err
	}
	records := len(b.man.Order)
	p.attempted = records
	p.failed = chk.failed
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: vol run failed:", runErr)
		p.failed = records
	} else if !bytes.Equal(summary.Bytes(), chk.summary) {
		fmt.Fprintln(os.Stderr, "perfbench: vol summary differs from the reference summary")
		p.failed = max(p.failed, 1)
	}
	var lats []float64
	for lo, prev := 0, start; lo < len(sink.at); lo += volWindow {
		hi := min(lo+volWindow, len(sink.at))
		lats = append(lats, ms(sink.at[hi-1].Sub(prev))/float64(hi-lo))
		prev = sink.at[hi-1]
	}
	t := tailOf(lats)
	p.metrics["setup_s"] = median(setups)
	p.metrics["latency_p50_ms"] = median(lats)
	p.metrics["latency_tail_ms"] = t.Value
	p.metrics["devices_per_s"] = float64(records-p.failed) / wall.Seconds()
	p.metrics["cpu_ms_per_device"] = ms(u1.cpu-u0.cpu) / float64(records)
	p.metrics["peak_rss_mb"] = float64(u1.maxRSS) / 1024
	chk.quality.into(p)
	p.notes["samples"] = len(lats)
	p.notes["latency_window"] = volWindow
	p.notes["tail_percentile"] = t.Percentile
	p.notes["distinct_syndromes"] = b.man.Distinct
	p.notes["wall_s"] = wall.Seconds()
	p.notes["setups"] = len(setups)
	if !traced {
		return p, nil
	}

	c := countersSince(tr.Registry(), nil)
	runs := int(c["volume.diagnosed"])
	if c["volume.cache_evictions"] == 0 && runs != b.man.Distinct {
		fmt.Fprintf(os.Stderr, "perfbench: %d engine runs for %d distinct syndromes\n", runs, b.man.Distinct)
		p.failed++
	}
	recs, _ := tr.Records()
	led := newLedger()
	led.addObs(recs)
	led.engineMetrics(p, runs)
	c.engineCounters(p, runs)
	engine := tr.PhaseTotal("diagnose")
	workers := runtime.GOMAXPROCS(0)
	p.metrics["core.diagnose_ms"] = ms(engine) / float64(max(runs, 1))
	p.metrics["cio.load_circuit_ms"] = ms(loadCircuit)
	p.metrics["tester.read_patterns_ms"] = ms(readPat)
	p.metrics["volume.ingest_s"] = ingest.Seconds()
	p.metrics["volume.dedupe_hit_ratio"] = ratio(c["volume.deduped"], c["volume.records"])
	p.metrics["volume.engine_runs"] = float64(runs)
	p.metrics["volume.engine_share"] = float64(engine) / (float64(ingest) * float64(workers))
	p.metrics["volume.cache_evictions"] = float64(c["volume.cache_evictions"])

	// The per-record stages, timed one record at a time over the same
	// stream, and the summary.
	probe, err := b.volProbe(streamPath)
	if err != nil {
		return nil, err
	}
	for k, v := range probe {
		p.metrics[k] = v
	}
	t0 := time.Now()
	if err := volume.WriteSummary(io.Discard, in.Aggregator().Summary()); err != nil {
		return nil, err
	}
	p.metrics["volume.summary_ms"] = ms(time.Since(t0))

	root.SetInt("records", int64(records))
	root.SetInt("engine_runs", int64(runs))
	p.trees = append(obsTrees(recs, epoch, b.workload), bt.Record())
	return p, nil
}

// volChecked is the outcome of the vol report check.
type volChecked struct {
	failed  int
	summary []byte
	quality quality
}

// volRefs diagnoses every distinct device of the stream sequentially and
// uncached, once per invocation.
func (b *bench) volRefs() ([]*volRef, error) {
	if b.vrefs != nil {
		return b.vrefs, nil
	}
	c, pats, err := b.refs.circuit(b)
	if err != nil {
		return nil, err
	}
	refs := make([]*volRef, len(b.man.Devices))
	err = parallel(len(refs), func(u int) error {
		rec := volume.Record{Fails: b.man.Devices[u].Fails}
		log, err := rec.BuildDatalog(c, len(pats))
		if err != nil {
			return err
		}
		res, err := core.Diagnose(c, pats, log, core.Config{Workers: 1})
		if err != nil {
			return err
		}
		rep := volume.BuildReport(c.Name, c, log, res, topN)
		js, err := rep.Encode()
		refs[u] = &volRef{fp: volume.FingerprintDatalog(c.Name, log), res: res, rep: rep, json: js}
		return err
	})
	if err != nil {
		return nil, err
	}
	b.vrefs = refs
	return refs, nil
}

// volCheck compares the hash of every report line with the hash of the
// line the record's reference implies, and folds the reference reports
// into the summary the run must have written.
func (b *bench) volCheck(sink *lineSink, ran bool) (*volChecked, error) {
	refs, err := b.volRefs()
	if err != nil {
		return nil, err
	}
	chk := &volChecked{}
	agg := volume.NewAggregator(circuitOf(b.workload), 0)
	entries := map[volume.Fingerprint]*volume.Entry{}
	for i, u := range b.man.Order {
		ref := refs[u]
		chk.quality.add(b.man.Devices[u].Defects, ref.res)
		e, ok := entries[ref.fp]
		if !ok {
			if e, err = volume.NewEntry(ref.fp, ref.rep); err != nil {
				return nil, err
			}
			entries[ref.fp] = e
		}
		rec := streamRecord(circuitOf(b.workload), i, b.man.Sites[i], b.man.Devices[u])
		agg.Add(rec.Site, int64(i)/volume.DefaultTrendBucket, e)
		if !ran {
			continue
		}
		line, err := json.Marshal(volume.DeviceReport{
			DeviceID: rec.DeviceID, Site: rec.Site, Fingerprint: ref.fp.String(), Report: json.RawMessage(ref.json),
		})
		if err != nil {
			return nil, err
		}
		if i >= len(sink.hashes) || sink.hashes[i] != maphash.Bytes(sink.seed, append(line, '\n')) {
			chk.failed++
		}
	}
	var sb bytes.Buffer
	if err := volume.WriteSummary(&sb, agg.Summary()); err != nil {
		return nil, err
	}
	chk.summary = sb.Bytes()
	return chk, nil
}

// volProbeRecords bounds the per-stage probe to a prefix of the stream.
const volProbeRecords = 20000

// volProbe times decode (RecordReader.Next + Record.BuildDatalog),
// fingerprint (volume.FingerprintDatalog) and encode (Report.Encode) one
// record at a time over the head of the stream, in microseconds.
func (b *bench) volProbe(streamPath string) (map[string]float64, error) {
	c, pats, err := b.refs.circuit(b)
	if err != nil {
		return nil, err
	}
	refs, err := b.volRefs()
	if err != nil {
		return nil, err
	}
	byFP := map[volume.Fingerprint]*volume.Report{}
	for _, r := range refs {
		byFP[r.fp] = r.rep
	}
	f, err := os.Open(streamPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rr := volume.NewRecordReader(f)
	var decode, fingerprint, encode time.Duration
	n := 0
	for ; n < volProbeRecords; n++ {
		t0 := time.Now()
		r, _, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		log, err := r.BuildDatalog(c, len(pats))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		fp := volume.FingerprintDatalog(c.Name, log)
		t2 := time.Now()
		rep, ok := byFP[fp]
		if !ok {
			return nil, fmt.Errorf("record %d: syndrome not in the stream's device set", n)
		}
		if _, err := rep.Encode(); err != nil {
			return nil, err
		}
		t3 := time.Now()
		decode += t1.Sub(t0)
		fingerprint += t2.Sub(t1)
		encode += t3.Sub(t2)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1)) }
	return map[string]float64{
		"volume.decode_us":      us(decode),
		"volume.fingerprint_us": us(fingerprint),
		"volume.encode_us":      us(encode),
	}, nil
}
