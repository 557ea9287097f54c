package core

import (
	"context"
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/fsim"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// TestDiagnoseCtxEmitsConnectedSpanTree pins the engine half of the
// tracing acceptance criterion: one traced diagnosis yields a single
// connected tree whose phases hang under "diagnose" and whose fsim worker
// spans hang under "score" → "fsim.parallel", with cone-cache probe
// attribution on the workers.
func TestDiagnoseCtxEmitsConnectedSpanTree(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	dev, err := defect.Inject(c, []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}})
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(c, dev, pats)
	if err != nil {
		t.Fatal(err)
	}

	tree := trace.NewTree(trace.TraceID{})
	ctx := trace.WithTree(context.Background(), tree)
	res, err := DiagnoseCtx(ctx, c, pats, log, Config{Workers: 2, ConeCache: fsim.NewConeCache(1 << 12)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Multiplet) == 0 {
		t.Fatal("fixture produced no multiplet")
	}

	rec := tree.Record()
	byName := map[string][]trace.SpanRecord{}
	byID := map[string]trace.SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.SpanID] = s
	}
	root := rec.Root()
	if root == nil || root.Name != "diagnose" {
		t.Fatalf("root span %+v, want diagnose", root)
	}
	for _, phase := range []string{"evidence", "goodsim", "extract", "score", "cover", "refine", "xcheck"} {
		spans := byName[phase]
		if len(spans) != 1 {
			t.Fatalf("phase %q: %d spans, want 1", phase, len(spans))
		}
		if spans[0].ParentID != root.SpanID {
			t.Fatalf("phase %q detached from root", phase)
		}
		if spans[0].Unfinished {
			t.Fatalf("phase %q left unfinished", phase)
		}
	}
	par := byName["fsim.parallel"]
	if len(par) != 1 || par[0].ParentID != byName["score"][0].SpanID {
		t.Fatalf("fsim.parallel misparented: %+v", par)
	}
	workers := byName["fsim.worker"]
	if len(workers) == 0 {
		t.Fatal("no fsim.worker spans")
	}
	var faults, probes int64
	for _, w := range workers {
		if w.ParentID != par[0].SpanID {
			t.Fatalf("worker span detached from fsim.parallel: %+v", w)
		}
		faults += int64(w.Attrs["faults"].(int64))
		probes += w.Attrs["cache_hits"].(int64) + w.Attrs["cache_misses"].(int64)
	}
	if faults != int64(res.CandidatesExtracted) {
		t.Fatalf("worker spans account for %d faults, extraction yielded %d", faults, res.CandidatesExtracted)
	}
	if probes == 0 {
		t.Fatal("no cone-cache probes attributed to workers despite an attached cache")
	}
	// Every span must reach the root by parent links — one connected tree.
	for _, s := range rec.Spans {
		cur := s
		for hops := 0; cur.SpanID != root.SpanID; hops++ {
			if hops > len(rec.Spans) {
				t.Fatalf("span %q has a parent cycle", s.Name)
			}
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %q disconnected (parent %q unknown)", s.Name, cur.ParentID)
			}
			cur = parent
		}
	}
}

// TestDiagnoseBatchEmitsSpanTree covers the coalesced path: batch phases
// and worker spans land under "diagnose_batch".
func TestDiagnoseBatchEmitsSpanTree(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	dev, err := defect.Inject(c, []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}})
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(c, dev, pats)
	if err != nil {
		t.Fatal(err)
	}

	tree := trace.NewTree(trace.TraceID{})
	ctx := trace.WithTree(context.Background(), tree)
	results, errs, err := DiagnoseBatch(ctx, c, pats, []*tester.Datalog{log, log}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	rec := tree.Record()
	if root := rec.Root(); root == nil || root.Name != "diagnose_batch" {
		t.Fatalf("root %+v", rec.Root())
	}
	names := map[string]int{}
	for _, s := range rec.Spans {
		names[s.Name]++
	}
	if names["evidence"] != 2 || names["extract"] != 2 || names["cover"] != 2 || names["score"] != 1 {
		t.Fatalf("batch span census wrong: %v", names)
	}
	if names["fsim.worker"] == 0 {
		t.Fatal("no worker spans in batch trace")
	}
}
