package core

import (
	"context"
	"reflect"
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// stages are the phases that open a prof window.
var stages = map[string]bool{
	"evidence": true, "goodsim": true, "extract": true, "score": true,
	"cover": true, "refine": true, "xcheck": true,
}

// spineFixture is c17 with G16 stuck-at-0 under exhaustive patterns: a
// failing device whose diagnosis runs every phase.
func spineFixture(t *testing.T) (c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) {
	t.Helper()
	c = circuits.C17()
	pats = exhaustivePatterns(5)
	dev, err := defect.Inject(c, []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}})
	if err != nil {
		t.Fatal(err)
	}
	if log, err = tester.ApplyTest(c, dev, pats); err != nil {
		t.Fatal(err)
	}
	return c, pats, log
}

// obsPaths renders every obs span record as its root-to-span name path,
// in start order.
func obsPaths(recs []obs.SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
		if r.Parent >= 0 {
			out[i] = out[r.Parent] + "/" + r.Name
		}
	}
	return out
}

// treePaths is obsPaths for a request tree, leaving out the fsim.worker
// spans, which only the tree records.
func treePaths(spans []trace.SpanRecord) []string {
	path := map[string]string{}
	var out []string
	for _, s := range spans {
		p := s.Name
		if parent, ok := path[s.ParentID]; ok {
			p = parent + "/" + s.Name
		}
		path[s.SpanID] = p
		if s.Name != "fsim.worker" {
			out = append(out, p)
		}
	}
	return out
}

// paths prefixes each phase with root, plus root itself.
func paths(root string, phases []string) []string {
	out := []string{root}
	for _, p := range phases {
		out = append(out, root+"/"+p)
	}
	return out
}

// TestOneTaxonomyThreeSinks runs one DiagnoseCtx and one DiagnoseBatch
// with all three instrumentation sinks live — an obs trace, a request
// tree and a prof collector — and checks that they agree: the obs
// records and the tree have the same phases with the same parents, and
// the prof windows are exactly the stages among them, each closed as
// often as its span.
func TestOneTaxonomyThreeSinks(t *testing.T) {
	c, pats, log := spineFixture(t)
	finish := []string{"cover", "refine", "xcheck"}
	runs := []struct {
		name string
		run  func(context.Context, Config) error
		// phases is every root/phase path the run must record.
		phases []string
	}{
		{"solo", func(ctx context.Context, cfg Config) error {
			_, err := DiagnoseCtx(ctx, c, pats, log, cfg)
			return err
		}, paths("diagnose", append([]string{"evidence", "goodsim", "extract", "score", "score/fsim.parallel"}, finish...))},
		{"batch", func(ctx context.Context, cfg Config) error {
			_, errs, err := DiagnoseBatch(ctx, c, pats, []*tester.Datalog{log, log}, cfg)
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			return err
		}, paths("diagnose_batch", append([]string{"evidence", "goodsim", "extract", "score", "score/fsim.parallel"}, finish...))},
	}
	for _, tc := range runs {
		run := tc.run
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New("spine")
			tree := trace.NewTree(trace.TraceID{})
			pc := prof.New(prof.Config{})
			prof.Enable(pc)
			defer func() {
				prof.Disable()
				pc.Stop()
			}()
			if err := run(trace.WithTree(context.Background(), tree), Config{Trace: tr, Workers: 2}); err != nil {
				t.Fatal(err)
			}

			recs, _ := tr.Records()
			obsP, treeP := obsPaths(recs), treePaths(tree.Record().Spans)
			if !reflect.DeepEqual(obsP, treeP) {
				t.Fatalf("obs and tree disagree on the phase structure:\n obs: %v\ntree: %v", obsP, treeP)
			}
			seen := map[string]bool{}
			for _, p := range obsP {
				seen[p] = true
			}
			for _, p := range tc.phases {
				if !seen[p] {
					t.Fatalf("phase %s not recorded: %v", p, obsP)
				}
			}

			spans := map[string]int64{}
			for _, ps := range tr.PhaseStats() {
				spans[ps.Name] = ps.Count
			}
			want := map[string]int64{}
			for name, n := range spans {
				if stages[name] {
					want[name] = n
				}
			}
			got := map[string]int64{}
			for _, pp := range pc.Phases() {
				got[pp.Name] = pp.Count
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prof windows %v, want one per stage span %v", got, want)
			}
		})
	}
}

// TestElapsedWithInstrumentationOff: with no obs trace, no request tree
// and no prof collector, the phase handles still time the diagnosis.
func TestElapsedWithInstrumentationOff(t *testing.T) {
	defer obs.SetGlobal(obs.Global())
	obs.SetGlobal(nil)
	if prof.Enabled() {
		t.Fatal("a prof collector is installed")
	}
	c, pats, log := spineFixture(t)
	res, err := DiagnoseCtx(context.Background(), c, pats, log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("solo Elapsed = %v", res.Elapsed)
	}
	results, _, err := DiagnoseBatch(context.Background(), c, pats, []*tester.Datalog{log}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed <= 0 {
		t.Fatalf("batch Elapsed = %v", results[0].Elapsed)
	}
}
