package gate

import (
	"maps"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: multidiag/internal/core
cpu: generic
BenchmarkDiagnose-8            	      92	  12715258 ns/op	 4821342 B/op	   22841 allocs/op
BenchmarkDiagnoseTraced-8      	      90	  12903991 ns/op	 4830122 B/op	   22913 allocs/op
BenchmarkDiagnoseExplained-8   	      85	  13514210 ns/op	 5721033 B/op	   31277 allocs/op
PASS
ok  	multidiag/internal/core	5.023s
`

// count tallies findings by level.
func count(fs []Finding) (warnings, failures int) {
	for _, f := range fs {
		if f.Level == Error {
			failures++
		} else {
			warnings++
		}
	}
	return warnings, failures
}

func TestParseBench(t *testing.T) {
	f, err := ParseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks: %v", len(f.Benchmarks), f.Benchmarks)
	}
	b, ok := f.Benchmarks["BenchmarkDiagnose"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", f.Benchmarks)
	}
	if b.Iterations != 92 || b.NsPerOp != 12715258 || b.BytesPerOp != 4821342 || b.AllocsPerOp != 22841 {
		t.Fatalf("parsed %+v", b)
	}
}

func TestParseBenchIgnoresChatter(t *testing.T) {
	f, err := ParseBench(strings.NewReader("PASS\nok x 1s\nBenchmarkBroken notanumber 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 0 {
		t.Fatalf("chatter parsed as benchmarks: %v", f.Benchmarks)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkDiagnose-8":      "BenchmarkDiagnose",
		"BenchmarkDiagnose-128":    "BenchmarkDiagnose",
		"BenchmarkDiagnose":        "BenchmarkDiagnose",
		"BenchmarkSpan/sub-case-4": "BenchmarkSpan/sub-case",
		"BenchmarkOdd-name":        "BenchmarkOdd-name",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBenchThresholds(t *testing.T) {
	base := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkA":    {NsPerOp: 100},
		"BenchmarkB":    {NsPerOp: 100},
		"BenchmarkC":    {NsPerOp: 100},
		"BenchmarkGone": {NsPerOp: 100},
	}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkA":   {NsPerOp: 105}, // ok
		"BenchmarkB":   {NsPerOp: 128}, // warning (>20)
		"BenchmarkC":   {NsPerOp: 150}, // failure (>35)
		"BenchmarkNew": {NsPerOp: 42},
	}}
	var out strings.Builder
	fs := Bench(&out, base, cur, BenchLimits{FailPct: 35, Alloc: Limit{Warn: 20}})
	levels := map[string]string{}
	for _, f := range fs {
		levels[f.Key] = f.Level
	}
	// The gone benchmark adds its own non-fatal warning.
	if want := map[string]string{"BenchmarkB": Warning, "BenchmarkC": Error, "BenchmarkGone": Warning}; !maps.Equal(levels, want) {
		t.Fatalf("findings %v, want levels %v\n%s", fs, want, out.String())
	}
	for _, want := range []string{"gone", "new", "+28.0%", "+50.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchFailThresholdDisabled(t *testing.T) {
	base := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkC": {NsPerOp: 100}}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkC": {NsPerOp: 200}}}
	var out strings.Builder
	if warnings, failures := count(Bench(&out, base, cur, BenchLimits{Alloc: Limit{Warn: 20}})); warnings != 1 || failures != 0 {
		t.Fatalf("warnings=%d failures=%d, want 1/0 with fail-threshold disabled", warnings, failures)
	}
}

func TestBenchAllocGate(t *testing.T) {
	base := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkB": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkC": {NsPerOp: 100}, // no -benchmem numbers in the baseline
	}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1300, AllocsPerOp: 105}, // bytes warn (>25), allocs ok
		"BenchmarkB": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 200}, // allocs fail (>50)
		"BenchmarkC": {NsPerOp: 100, BytesPerOp: 9999, AllocsPerOp: 9999},
	}}
	var out strings.Builder
	fs := Bench(&out, base, cur, BenchLimits{FailPct: 35, Alloc: Limit{Warn: 25, Fail: 50}})
	if warnings, failures := count(fs); warnings != 1 || failures != 1 {
		t.Fatalf("warnings=%d failures=%d, want 1/1 (bytes warn + allocs fail, missing baseline side skipped)\n%s",
			warnings, failures, out.String())
	}
}

func TestBenchAllocFailThresholdDisabled(t *testing.T) {
	base := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 100}}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 300}}}
	var out strings.Builder
	if warnings, failures := count(Bench(&out, base, cur, BenchLimits{FailPct: 35, Alloc: Limit{Warn: 25}})); warnings != 1 || failures != 0 {
		t.Fatalf("warnings=%d failures=%d, want 1/0 with alloc-fail-threshold disabled", warnings, failures)
	}
}

func TestSpeedupGate(t *testing.T) {
	f := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkDiagnoseScaling/j1": {NsPerOp: 1000},
		"BenchmarkDiagnoseScaling/j8": {NsPerOp: 250},
	}}
	var out strings.Builder
	fs, err := Speedup(&out, f, "BenchmarkDiagnoseScaling/j1", "BenchmarkDiagnoseScaling/j8", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("4x speedup gated at a 2.5x minimum: %v", fs)
	}
	if !strings.Contains(out.String(), "4.00x") {
		t.Fatalf("verdict line missing ratio:\n%s", out.String())
	}
}

func TestSpeedupGateBelowMinimum(t *testing.T) {
	f := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkDiagnoseScaling/j1": {NsPerOp: 1000},
		"BenchmarkDiagnoseScaling/j8": {NsPerOp: 900},
	}}
	var out strings.Builder
	fs, err := Speedup(&out, f, "BenchmarkDiagnoseScaling/j1", "BenchmarkDiagnoseScaling/j8", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Level != Error {
		t.Fatalf("1.11x speedup passed the 2.5x gate: %v", fs)
	}
}

func TestSpeedupGateMissingBenchmark(t *testing.T) {
	f := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkDiagnoseScaling/j1": {NsPerOp: 1000},
	}}
	var out strings.Builder
	if _, err := Speedup(&out, f, "BenchmarkDiagnoseScaling/j1", "BenchmarkDiagnoseScaling/j8", 2.5); err == nil {
		t.Fatal("missing target benchmark must be an error, not a vacuous pass")
	}
	if _, err := Speedup(&out, f, "BenchmarkDiagnoseScaling/j0", "BenchmarkDiagnoseScaling/j1", 2.5); err == nil {
		t.Fatal("missing base benchmark must be an error, not a vacuous pass")
	}
	// A benchmark parsed without a timing (ns/op 0) is as absent as a
	// missing key.
	f.Benchmarks["BenchmarkDiagnoseScaling/j8"] = BenchResult{}
	if _, err := Speedup(&out, f, "BenchmarkDiagnoseScaling/j1", "BenchmarkDiagnoseScaling/j8", 2.5); err == nil {
		t.Fatal("zero-timing benchmark must be an error")
	}
}

func TestBenchGoneWarns(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "")
	base := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkGone": {NsPerOp: 100}}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{}}
	var table, stderr strings.Builder
	fs := Bench(&table, base, cur, BenchLimits{FailPct: 35, Alloc: Limit{Warn: 20, Fail: 35}})
	if failures, _ := Annotate(&table, &stderr, BenchTitle, fs); failures != 0 {
		t.Fatalf("gone benchmark must stay non-fatal, got %d failures", failures)
	}
	if !strings.Contains(stderr.String(), "WARNING") || !strings.Contains(stderr.String(), "missing from current run") {
		t.Fatalf("gone benchmark produced no warning annotation; stderr:\n%s", stderr.String())
	}
}

func TestBenchMissingFatal(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "")
	base := &BenchFile{Benchmarks: map[string]BenchResult{
		"BenchmarkGone": {NsPerOp: 100},
		"BenchmarkKept": {NsPerOp: 100},
	}}
	cur := &BenchFile{Benchmarks: map[string]BenchResult{"BenchmarkKept": {NsPerOp: 100}}}
	var table, stderr strings.Builder
	fs := Bench(&table, base, cur, BenchLimits{FailPct: 35, Alloc: Limit{Warn: 20, Fail: 35}, MissingFatal: true})
	if failures, warnings := Annotate(&table, &stderr, BenchTitle, fs); warnings != 0 || failures != 1 {
		t.Fatalf("-missing-fatal gone benchmark: warnings=%d failures=%d, want 0/1", warnings, failures)
	}
	if !strings.Contains(stderr.String(), "ERROR") || !strings.Contains(stderr.String(), "missing from current run") {
		t.Fatalf("-missing-fatal gone benchmark produced no error annotation; stderr:\n%s", stderr.String())
	}
}

// TestAnnotateActions pins the workflow annotation syntax: inside GitHub
// Actions findings go to stdout as ::level title=… regression:: lines.
func TestAnnotateActions(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "true")
	var stdout, stderr strings.Builder
	errs, warns := Annotate(&stdout, &stderr, ProfTitle, []Finding{
		{Level: Warning, Message: "w"}, {Level: Error, Message: "e"},
	})
	if errs != 1 || warns != 1 {
		t.Fatalf("counted %d errors, %d warnings, want 1/1", errs, warns)
	}
	if want := "::warning title=profile regression::w\n::error title=profile regression::e\n"; stdout.String() != want || stderr.Len() != 0 {
		t.Fatalf("stdout %q stderr %q, want stdout %q", stdout.String(), stderr.String(), want)
	}
}
