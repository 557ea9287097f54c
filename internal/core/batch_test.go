package core

import (
	"context"
	"errors"
	"testing"

	"multidiag/internal/bitset"
	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// batchDevices injects one defect set per device and returns the datalogs.
func batchDevices(t *testing.T, c *netlist.Circuit, pats []sim.Pattern, devDefects [][]defect.Defect) []*tester.Datalog {
	t.Helper()
	logs := make([]*tester.Datalog, len(devDefects))
	for i, ds := range devDefects {
		dev, err := defect.Inject(c, ds)
		if err != nil {
			t.Fatal(err)
		}
		logs[i], err = tester.ApplyTest(c, dev, pats)
		if err != nil {
			t.Fatal(err)
		}
	}
	return logs
}

// TestDiagnoseBatchMatchesSolo is the coalescing correctness pin: a batch
// of devices — overlapping defects (shared seeds), disjoint defects, and
// a passing device — must produce reports bit-identical to diagnosing
// each device alone.
func TestDiagnoseBatchMatchesSolo(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	devDefects := [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false},
			{Kind: defect.StuckNet, Net: c.NetByName("G10"), Value1: true}},
		{}, // passing device
		{{Kind: defect.StuckNet, Net: c.NetByName("G23"), Value1: true}},
	}
	logs := batchDevices(t, c, pats, devDefects)

	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers}
		results, errs, err := DiagnoseBatch(context.Background(), c, pats, logs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, log := range logs {
			if errs[i] != nil {
				t.Fatalf("workers=%d device %d: %v", workers, i, errs[i])
			}
			solo, err := Diagnose(c, pats, log, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, want := renderResult(c, results[i]), renderResult(c, solo)
			if got != want {
				t.Errorf("workers=%d device %d: batch report diverges from solo\nbatch:\n%s\nsolo:\n%s",
					workers, i, got, want)
			}
		}
	}
}

// TestDiagnoseBatchSharedCache: batch diagnosis must accept and reuse a
// workload cone cache, and still match solo reports.
func TestDiagnoseBatchSharedCache(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	devDefects := [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	}
	logs := batchDevices(t, c, pats, devDefects)
	cc := fsim.NewConeCache(0)
	results, errs, err := DiagnoseBatch(context.Background(), c, pats, logs, Config{ConeCache: cc})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Diagnose(c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range logs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if got, want := renderResult(c, results[i]), renderResult(c, solo); got != want {
			t.Errorf("device %d cached batch diverges from solo\nbatch:\n%s\nsolo:\n%s", i, got, want)
		}
	}
}

// TestDiagnoseBatchPositionalErrors: a malformed datalog fails its own
// slot without poisoning the rest of the batch.
func TestDiagnoseBatchPositionalErrors(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	})
	bad := &tester.Datalog{NumPatterns: 3, NumPOs: len(c.POs)}
	results, errs, err := DiagnoseBatch(context.Background(), c, pats,
		[]*tester.Datalog{bad, logs[0]}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil || results[0] != nil {
		t.Errorf("malformed device: want positional error, got res=%v err=%v", results[0], errs[0])
	}
	if errs[1] != nil || results[1] == nil {
		t.Errorf("good device: want result, got res=%v err=%v", results[1], errs[1])
	}
	if results[1] != nil && len(results[1].Multiplet) == 0 {
		t.Error("good device diagnosed to an empty multiplet")
	}
}

// TestDiagnoseCtxCanceled: a pre-canceled context aborts before any work
// and surfaces as a wrapped ErrCanceled.
func TestDiagnoseCtxCanceled(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiagnoseCtx(ctx, c, pats, logs[0], Config{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiagnoseCtx: want ErrCanceled, got %v", err)
	}
	if _, _, err := DiagnoseBatch(ctx, c, pats, logs, Config{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("DiagnoseBatch: want ErrCanceled, got %v", err)
	}
}

// TestDiagnoseCtxUncanceledMatchesDiagnose: with a live context the ctx
// variant is the same engine.
func TestDiagnoseCtxUncanceledMatchesDiagnose(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G10"), Value1: true}},
	})
	a, err := DiagnoseCtx(context.Background(), c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Diagnose(c, pats, logs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResult(c, a), renderResult(c, b); got != want {
		t.Errorf("ctx variant diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestDiagnoseBatchSeedlessDevice: a device that fails only on patterns
// with X inputs yields no seeds; in a batch it still runs the cover and
// the X-check, exactly as alone (no multiplet, so not consistent).
func TestDiagnoseBatchSeedlessDevice(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	xPat := pats[3].Clone()
	xPat[2] = logic.X
	pats[3] = xPat
	logs := batchDevices(t, c, pats, [][]defect.Defect{
		{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}},
	})
	fails := bitset.New(len(c.POs))
	fails.Add(0)
	logs = append(logs, &tester.Datalog{NumPatterns: len(pats), NumPOs: len(c.POs), Fails: map[int]bitset.Set{3: fails}})
	results, errs, err := DiagnoseBatch(context.Background(), c, pats, logs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, log := range logs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		solo, err := Diagnose(c, pats, log, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderResult(c, results[i]), renderResult(c, solo); got != want {
			t.Errorf("device %d: batch report diverges from solo\nbatch:\n%s\nsolo:\n%s", i, got, want)
		}
	}
	if results[1].CandidatesExtracted != 0 || results[1].Consistent {
		t.Errorf("seedless device: extracted %d, consistent %v", results[1].CandidatesExtracted, results[1].Consistent)
	}
}

// TestOnePipelineNames pins what outside readers see of the one pipeline:
// the root span is "diagnose" for one device and "diagnose_batch" for
// more, the core.batch_* counters count coalesced calls only, and a call
// with nothing to extract builds no simulator.
func TestOnePipelineNames(t *testing.T) {
	c, pats, log := spineFixture(t)
	passing := &tester.Datalog{NumPatterns: len(pats), NumPOs: len(c.POs), Fails: map[int]bitset.Set{}}
	bad := &tester.Datalog{NumPatterns: 3, NumPOs: len(c.POs)}
	for _, tc := range []struct {
		name      string
		logs      []*tester.Datalog
		root      string
		batch     bool // counted as a coalesced call
		simulates bool
	}{
		{"one", []*tester.Datalog{log}, "diagnose", false, true},
		{"two", []*tester.Datalog{log, log}, "diagnose_batch", true, true},
		{"nothing to extract", []*tester.Datalog{passing, bad}, "diagnose_batch", true, false},
		{"one passing", []*tester.Datalog{passing}, "diagnose", false, false},
	} {
		tr := obs.New("names")
		if _, _, err := DiagnoseBatch(context.Background(), c, pats, tc.logs, Config{Trace: tr}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		phases := map[string]int64{}
		for _, ps := range tr.PhaseStats() {
			phases[ps.Name] = ps.Count
		}
		if phases[tc.root] != 1 || len(phases) > 1 && !tc.simulates {
			t.Errorf("%s: phases %v, want root %s", tc.name, phases, tc.root)
		}
		if got := phases["goodsim"] == 1; got != tc.simulates {
			t.Errorf("%s: simulator built %v, want %v", tc.name, got, tc.simulates)
		}
		counted := tr.Registry().Snapshot()["core.batch_devices"]
		if got := counted == int64(len(tc.logs)); got != tc.batch {
			t.Errorf("%s: core.batch_devices = %d, want coalesced %v", tc.name, counted, tc.batch)
		}
	}
}
