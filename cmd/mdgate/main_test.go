package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multidiag/internal/gate"
	"multidiag/internal/prof"
	"multidiag/internal/qrec"
	"multidiag/internal/volume"
)

// The committed baselines, read as they are: the gates must accept them
// without regeneration.
const (
	benchBaseline    = "../../BENCH_diag.json"
	profBaselineFile = "../../PROF_baseline.json"
	qualityBaseline  = "../../QUALITY_baseline.json"
)

// runGate runs mdgate in-process and returns its exit code and output.
func runGate(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func writeJSONFile(t *testing.T, name string, v any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := write(path, nil, io.Discard, v, 0, ""); err != nil {
		t.Fatal(err)
	}
	return path
}

// profStream writes an mdprof/v1 stream whose final phase table matches
// b's per-call budgets, with phase name's allocations scaled by inflate.
func profStream(t *testing.T, b *prof.Baseline, name string, inflate float64) string {
	t.Helper()
	var phases []prof.PhaseProf
	for n, p := range b.Phases {
		scale := 1.0
		if n == name {
			scale = inflate
		}
		phases = append(phases, prof.PhaseProf{
			Name:         n,
			Count:        p.Count,
			AllocBytes:   int64(p.AllocBytesPerCall * float64(p.Count) * scale),
			AllocObjects: int64(p.AllocObjsPerCall * float64(p.Count) * scale),
		})
	}
	return writeJSONFile(t, "run.jsonl", prof.Snapshot{Schema: prof.Schema, Kind: prof.KindSummary, Phases: phases})
}

// TestRunExitCodes runs every gate on a clean pair (exit 0) and on one
// injected regression (exit 1 with its workflow annotation).
func TestRunExitCodes(t *testing.T) {
	bench, err := gate.LoadBench(benchBaseline)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(name string, f func(*gate.BenchResult)) string {
		cp := &gate.BenchFile{Benchmarks: map[string]gate.BenchResult{}}
		for k, v := range bench.Benchmarks {
			cp.Benchmarks[k] = v
		}
		r := cp.Benchmarks[name]
		f(&r)
		cp.Benchmarks[name] = r
		return writeJSONFile(t, "bench.json", cp)
	}
	slowBench := edit("BenchmarkDiagnose", func(r *gate.BenchResult) { r.NsPerOp *= 2 })
	allocBench := edit("BenchmarkDiagnose", func(r *gate.BenchResult) { r.AllocsPerOp *= 2 })
	noSpeedup := edit("BenchmarkVolumeIngestDeduped", func(r *gate.BenchResult) {
		r.NsPerOp = bench.Benchmarks["BenchmarkVolumeIngest"].NsPerOp
	})

	profBase, err := gate.LoadProfBaseline(profBaselineFile)
	if err != nil {
		t.Fatal(err)
	}

	quality, err := gate.LoadQuality(qualityBaseline)
	if err != nil {
		t.Fatal(err)
	}
	worse := *quality
	worse.Records = append([]qrec.Record(nil), quality.Records...)
	worse.Records[0].SiteAcc -= 0.1

	record := func(shedRate float64) string {
		f := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		f.AddService(qrec.ServiceRecord{Label: "smoke", Requests: 11, Batches: 4, MeanBatch: 2.75, ShedRate: shedRate, ServiceP95MS: 4.2})
		return writeJSONFile(t, "serve.json", f)
	}
	summary := func(dedupe float64) string {
		return writeJSONFile(t, "summary.json", &volume.Summary{
			Schema: volume.SummarySchema, Workload: "c17", Devices: 200, Failing: 198, UniqueSyndromes: 20,
			DedupeRatio: dedupe, Classes: []volume.ClassCount{{Class: "sa0", Devices: 150}},
		})
	}

	speedup := []string{"-base", "BenchmarkVolumeIngest", "-target", "BenchmarkVolumeIngestDeduped", "-min", "5"}
	failAt35 := []string{"-fail-threshold", "35", "-alloc-fail-threshold", "35"}
	for _, tc := range []struct {
		name       string
		clean, bad []string
		title      string
	}{
		{"bench ns/op", append([]string{"bench", benchBaseline, benchBaseline}, failAt35...),
			append([]string{"bench", benchBaseline, slowBench}, failAt35...), "benchmark"},
		{"bench allocs", append([]string{"bench", benchBaseline, benchBaseline}, failAt35...),
			append([]string{"bench", benchBaseline, allocBench}, failAt35...), "benchmark"},
		{"speedup", append([]string{"speedup", benchBaseline}, speedup...),
			append([]string{"speedup", noSpeedup}, speedup...), "benchmark"},
		{"prof", []string{"prof", profBaselineFile, profStream(t, profBase, "", 1)},
			[]string{"prof", profBaselineFile, profStream(t, profBase, "extract", 2)}, "profile"},
		{"quality", []string{"quality", qualityBaseline, qualityBaseline},
			[]string{"quality", qualityBaseline, writeJSONFile(t, "quality.json", &worse)}, "quality"},
		{"serve", []string{"serve", record(0), record(0)},
			[]string{"serve", record(0), record(0.2)}, "quality"},
		{"volume", []string{"volume", summary(0.9), summary(0.9)},
			[]string{"volume", summary(0.9), summary(0.8)}, "quality"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("GITHUB_ACTIONS", "true")
			if code, out, errOut := runGate(tc.clean...); code != 0 {
				t.Fatalf("clean pair exited %d\n%s%s", code, out, errOut)
			}
			code, out, errOut := runGate(tc.bad...)
			if code != 1 {
				t.Fatalf("injected regression exited %d, want 1\n%s%s", code, out, errOut)
			}
			if want := "::error title=" + tc.title + " regression::"; !strings.Contains(out, want) {
				t.Fatalf("stdout lacks %q:\n%s", want, out)
			}
		})
	}
}

// TestQualityExitCodes pins the non-workflow contract: a clean compare
// confirms itself on stdout, an accuracy drop exits 1 with an ERROR line
// naming the record on stderr, and latency drift warns but exits 0.
func TestQualityExitCodes(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "")
	record := func(campaign string, site, ms float64) qrec.Record {
		return qrec.Record{
			Campaign: campaign, Circuit: "b0300", Defects: 2, Method: "ours", Devices: 6,
			SiteAcc: site, RegionAcc: site, Success: site, Resolution: 4, MsPerDiag: ms,
		}
	}
	file := func(recs ...qrec.Record) string {
		return writeJSONFile(t, "q.json", &qrec.File{Schema: qrec.Schema, Records: recs})
	}
	base := file(record("T3/b0300/2", 1, 10), record("T3/b0300/3", 0.9, 10))

	if code, out, errOut := runGate("quality", base, base); code != 0 || !strings.Contains(out, "2 records within thresholds") {
		t.Fatalf("self-compare: exit %d\n%s%s", code, out, errOut)
	}
	bad := file(record("T3/b0300/2", 1, 10), record("T3/b0300/3", 0.80, 10))
	if code, out, errOut := runGate("quality", base, bad); code != 1 || !strings.Contains(errOut, "ERROR") || !strings.Contains(errOut, "T3/b0300/3") {
		t.Fatalf("accuracy drop: exit %d\n%s%s", code, out, errOut)
	}
	slow := file(record("T3/b0300/2", 1, 10), record("T3/b0300/3", 0.9, 100))
	if code, out, errOut := runGate("quality", base, slow); code != 0 || !strings.Contains(errOut, "WARNING") {
		t.Fatalf("latency drift: exit %d\n%s%s", code, out, errOut)
	}
}

func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"quality", qualityBaseline},
		{"speedup", benchBaseline, "-min", "2"},
		{"bench", benchBaseline, benchBaseline, "-fail"},
	} {
		if code, _, _ := runGate(args...); code != 2 {
			t.Errorf("mdgate %v exited %d, want 2", args, code)
		}
	}
	if code, _, errOut := runGate("quality", qualityBaseline, filepath.Join(t.TempDir(), "missing.json")); code != 1 || !strings.HasPrefix(errOut, "mdgate: ") {
		t.Errorf("missing file: exit %d, stderr %q", code, errOut)
	}
}

// TestProfBaselineRoundTrip checks prof-baseline writes a file the prof
// gate reads back clean against the same stream.
func TestProfBaselineRoundTrip(t *testing.T) {
	base, err := gate.LoadProfBaseline(profBaselineFile)
	if err != nil {
		t.Fatal(err)
	}
	stream := profStream(t, base, "", 1)
	out := filepath.Join(t.TempDir(), "PROF_baseline.json")
	if code, _, errOut := runGate("prof-baseline", stream, "-o", out); code != 0 {
		t.Fatalf("prof-baseline exited %d: %s", code, errOut)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got prof.Baseline
	if err := json.Unmarshal(data, &got); err != nil || len(got.Phases) != len(base.Phases) {
		t.Fatalf("baseline %s: %v", data, err)
	}
	if code, stdout, errOut := runGate("prof", out, stream); code != 0 {
		t.Fatalf("prof gate on its own baseline exited %d\n%s%s", code, stdout, errOut)
	}
}
