package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multidiag/internal/serve"
	"multidiag/internal/trace"
)

// dataDir holds the generated inputs shared by every test.
var dataDir string

func TestMain(m *testing.M) {
	// The input generator re-executes the running binary with -gen; under
	// go test that binary is the test binary.
	if len(os.Args) > 1 && os.Args[1] == "-gen" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dataDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runShort runs one workload in short mode through the command line and
// returns the human-readable lines and the decoded result line.
func runShort(t *testing.T, workload string, traced int) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--short", "--data", dataDir, "--trace", fmt.Sprint(traced)}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return lines[:len(lines)-1], res
}

// checkMetrics requires every metric of defs, with its unit, in both the
// result line and the human-readable lines.
func checkMetrics(t *testing.T, lines []string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	text := strings.Join(lines, "\n")
	for _, m := range defs {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		prefix := fmt.Sprintf("perfbench metric %-34s ", m.Name)
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, " "+m.Unit) {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s is not printed with its unit:\n%s", m.Name, text)
		}
	}
}

func TestShortWorkloadsPrintEveryMetric(t *testing.T) {
	for _, wl := range workloadDefs {
		t.Run(wl.Name, func(t *testing.T) {
			lines, res := runShort(t, wl.Name, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, lines, res, endToEnd)
			for _, name := range []string{"latency_p50_ms", "devices_per_s", "cpu_ms_per_device", "setup_s", "success_rate", "resolution"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

func TestTracedRunWritesLedgerAndTrees(t *testing.T) {
	for _, wl := range workloadDefs {
		t.Run(wl.Name, func(t *testing.T) {
			lines, res := runShort(t, wl.Name, 1)
			if !res.Correct {
				t.Fatalf("traced run failed: %+v", res)
			}
			checkMetrics(t, lines, res, perLayer)
			for _, name := range []string{"core.diagnose_ms", "core.extract_ms", "core.seeds_per_device", "fsim.sims_per_device", "core.serial_share"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			f, err := os.Open(filepath.Join(dataDir, "traces", wl.Name+"-s3.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			trees, err := trace.ReadTrees(bufio.NewReader(f))
			if err != nil {
				t.Fatalf("mdtrace cannot read the traced-run output: %v", err)
			}
			names := map[string]bool{}
			for _, tr := range trees {
				for _, s := range tr.Spans {
					names[s.Name] = true
				}
			}
			for _, want := range []string{"diagnose", "extract", "fsim.parallel"} {
				if !names[want] {
					t.Errorf("traced trees carry no %q span (have %v)", want, names)
				}
			}
		})
	}
}

// shortBench builds a short-mode bench for the failure tests.
func shortBench(t *testing.T, workload string) *bench {
	t.Helper()
	b, err := newBench(workload, 3, 0, true, false, dataDir, "")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func measureFailed(t *testing.T, b *bench) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := b.measure(false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d of %d; the report check did not fire\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func TestCorruptedReportCountsAsFailed(t *testing.T) {
	for _, wl := range workloadDefs {
		t.Run(wl.Name, func(t *testing.T) {
			b := shortBench(t, wl.Name)
			first := true
			b.tamper = func(_ int, out []byte) []byte {
				if !first || len(out) == 0 {
					return out
				}
				first = false
				bad := append([]byte(nil), out...)
				i := bytes.IndexByte(bad, '1')
				if i < 0 {
					i = 0
				}
				bad[i] ^= 1 // one flipped bit in one report
				return bad
			}
			res := measureFailed(t, b)
			if res.Failed != 1 && wl.Name != "serve-b1000" {
				t.Errorf("failed = %d, want exactly the corrupted device", res.Failed)
			}
		})
	}
}

func TestShedCountsAsFailed(t *testing.T) {
	b := shortBench(t, "serve-b1000")
	// One body byte of admission budget: every request's first device is
	// shed with 429 (a batch's later devices carry no body bytes of their
	// own and are admitted).
	b.serveConfig = serve.Config{MaxInflightBytes: 1}
	res := measureFailed(t, b)
	if want := b.plan.serveRequests(); res.Failed != want {
		t.Errorf("failed %d of %d, want %d: every shed device must count", res.Failed, res.Attempted, want)
	}
}

func TestEngineErrorCountsAsFailed(t *testing.T) {
	b := shortBench(t, "cli-b1000")
	// Copy the inputs and give one timed device a datalog the engine
	// rejects (its pattern count does not match the test set).
	dir := t.TempDir()
	for _, f := range []string{b.man.Circuit, b.man.Patterns} {
		copyFile(t, filepath.Join(b.dir, f), filepath.Join(dir, f))
	}
	if err := os.Mkdir(filepath.Join(dir, "dev"), 0o755); err != nil {
		t.Fatal(err)
	}
	bad := b.plan.warm
	for i, d := range b.man.Devices {
		copyFile(t, filepath.Join(b.dir, d.Datalog), filepath.Join(dir, d.Datalog))
		if i == bad {
			if err := os.WriteFile(filepath.Join(dir, d.Datalog), []byte("patterns 3\npos 20\nfail 0 1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.dir = dir
	res := measureFailed(t, b)
	if res.Failed != 1 {
		t.Errorf("failed = %d, want 1", res.Failed)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --spec > BENCHMARK.json")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOf(xs); got.Percentile != 90 || got.Value != 90 {
		t.Errorf("tail of 1..100 = %+v, want p90 = 90 (ten samples beyond)", got)
	}
	if got := tailOf(xs[:15]); got.Percentile != 100 || got.Value != 15 {
		t.Errorf("tail of 15 samples = %+v, want the maximum", got)
	}
}

func TestLedgerSelfTime(t *testing.T) {
	// diagnose [0,100) with extract [10,40) and score [40,90); score holds
	// a parallel pass [45,85) whose two workers are part of the pass.
	l := newLedger()
	l.add([]span{
		{name: "diagnose", parent: -1, start: 0, dur: 100},
		{name: "extract", parent: 0, start: 10, dur: 30},
		{name: "score", parent: 0, start: 40, dur: 50},
		{name: "fsim.parallel", parent: 2, start: 45, dur: 40},
		{name: "fsim.worker", parent: 3, start: 45, dur: 40},
		{name: "fsim.worker", parent: 3, start: 46, dur: 30},
	})
	for name, want := range map[string]int64{"diagnose": 20, "extract": 30, "score": 10, "fsim.parallel": 40} {
		if got := int64(l.self[name]); got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if l.workerBusy != 70 || l.workerCap != 80 {
		t.Errorf("worker busy/cap = %d/%d, want 70/80", l.workerBusy, l.workerCap)
	}
}
