package core

import (
	"reflect"
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/explain"
)

// eventsByCand groups a recorder's events per candidate id and stage.
func eventsByCand(evs []explain.Event) map[string]map[string][]explain.Event {
	out := map[string]map[string][]explain.Event{}
	for _, ev := range evs {
		if ev.Kind != "cand" {
			continue
		}
		if out[ev.Cand] == nil {
			out[ev.Cand] = map[string][]explain.Event{}
		}
		out[ev.Cand][ev.Stage] = append(out[ev.Cand][ev.Stage], ev)
	}
	return out
}

// TestExplainLifecycleComplete is the flight recorder's core contract:
// after a diagnosis with a recorder attached, every extracted seed has a
// complete, self-consistent trail — extract, then exactly one scoring
// verdict (scored / merged / pruned), then a cover verdict for every
// scored survivor, then refine + xcheck for every multiplet member.
func TestExplainLifecycleComplete(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	ds := []defect.Defect{
		{Kind: defect.StuckNet, Net: c.NetByName("G10"), Value1: true},
		{Kind: defect.StuckNet, Net: c.NetByName("G19"), Value1: true},
	}
	rec := explain.New("test")
	res, _, _ := diagnoseInjected(t, c, pats, ds, Config{Explain: rec})
	if len(res.Evidence) == 0 {
		t.Skip("not activated")
	}
	evs, dropped := rec.Events()
	if dropped != 0 {
		t.Fatalf("dropped %d events", dropped)
	}

	// Exactly one evidence event, enumerating the whole universe.
	var evidence []explain.Event
	for _, ev := range evs {
		if ev.Kind == "evidence" {
			evidence = append(evidence, ev)
		}
	}
	if len(evidence) != 1 {
		t.Fatalf("%d evidence events", len(evidence))
	}
	if len(evidence[0].Bits) != len(res.Evidence) {
		t.Fatalf("evidence event has %d bits, result has %d", len(evidence[0].Bits), len(res.Evidence))
	}
	for i, b := range evidence[0].Bits {
		if b.Pattern != res.Evidence[i].Pattern || b.PO != res.Evidence[i].PO {
			t.Fatalf("evidence bit %d mismatch: %+v vs %+v", i, b, res.Evidence[i])
		}
	}

	byCand := eventsByCand(evs)
	if len(byCand) != res.CandidatesExtracted {
		t.Fatalf("trails for %d candidates, extracted %d", len(byCand), res.CandidatesExtracted)
	}

	// Every candidate: one extract event with a non-empty source
	// attribution, then exactly one scoring verdict.
	scored := 0
	for cand, stages := range byCand {
		ext := stages[explain.StageExtract]
		if len(ext) != 1 {
			t.Fatalf("%s: %d extract events", cand, len(ext))
		}
		if len(ext[0].Bits) == 0 {
			t.Errorf("%s: extract event has no source bits", cand)
		}
		for _, b := range ext[0].Bits {
			if b.PO < 0 {
				t.Errorf("%s: exact-CPT extraction attributed at pattern level", cand)
			}
		}
		sc := stages[explain.StageScore]
		if len(sc) != 1 {
			t.Fatalf("%s: %d score events", cand, len(sc))
		}
		switch sc[0].Verdict {
		case explain.VerdictScored:
			scored++
			if sc[0].TFSF == 0 || len(sc[0].Covered) != sc[0].TFSF {
				t.Errorf("%s: scored with TFSF=%d but %d covered indices", cand, sc[0].TFSF, len(sc[0].Covered))
			}
			for _, idx := range sc[0].Covered {
				if idx < 0 || idx >= len(res.Evidence) {
					t.Errorf("%s: covered index %d out of evidence range", cand, idx)
				}
			}
			// Scored survivors must receive a cover verdict.
			cov := stages[explain.StageCover]
			if len(cov) != 1 {
				t.Fatalf("%s: scored but %d cover events", cand, len(cov))
			}
			if v := cov[0].Verdict; v != explain.VerdictKept && v != explain.VerdictPruned {
				t.Errorf("%s: cover verdict %q", cand, v)
			}
		case explain.VerdictMerged:
			if sc[0].EquivTo == "" {
				t.Errorf("%s: merged without a target class", cand)
			}
			if _, ok := byCand[sc[0].EquivTo]; !ok {
				t.Errorf("%s: merged into unknown candidate %q", cand, sc[0].EquivTo)
			}
		case explain.VerdictPruned:
			if sc[0].Reason == "" {
				t.Errorf("%s: pruned without a reason", cand)
			}
		default:
			t.Errorf("%s: unknown score verdict %q", cand, sc[0].Verdict)
		}
	}

	// Every multiplet member: the full five-stage trail, kept in selection
	// order, with refine models and the shared xcheck verdict.
	for i, cd := range res.Multiplet {
		cand := cd.Fault.String()
		stages := byCand[cand]
		if stages == nil {
			t.Fatalf("multiplet member %s has no trail", cand)
		}
		cov := stages[explain.StageCover]
		if len(cov) != 1 || cov[0].Verdict != explain.VerdictKept {
			t.Fatalf("%s: kept verdict missing (%v)", cand, cov)
		}
		if cov[0].Order != i+1 {
			t.Errorf("%s: selection order %d, want %d", cand, cov[0].Order, i+1)
		}
		ref := stages[explain.StageRefine]
		if len(ref) != 1 || len(ref[0].Models) == 0 {
			t.Fatalf("%s: refine event missing or empty (%v)", cand, ref)
		}
		if len(ref[0].Models) != len(cd.Models) {
			t.Errorf("%s: %d model fits recorded, candidate has %d", cand, len(ref[0].Models), len(cd.Models))
		}
		xc := stages[explain.StageXCheck]
		if len(xc) != 1 {
			t.Fatalf("%s: %d xcheck events", cand, len(xc))
		}
		want := explain.VerdictConsistent
		if !res.Consistent {
			want = explain.VerdictInconsistent
		}
		if xc[0].Verdict != want {
			t.Errorf("%s: xcheck verdict %q, want %q", cand, xc[0].Verdict, want)
		}
	}
	if scored == 0 {
		t.Fatal("no candidate survived scoring")
	}
}

// TestExplainDisabledStages: ablation configs must still close every
// multiplet member's trail, with skipped verdicts.
func TestExplainDisabledStages(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	ds := []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}}
	rec := explain.New("test")
	res, _, _ := diagnoseInjected(t, c, pats, ds,
		Config{Explain: rec, DisableBridgeSearch: true, DisableXConsistency: true})
	if len(res.Multiplet) == 0 {
		t.Skip("not activated")
	}
	evs, _ := rec.Events()
	byCand := eventsByCand(evs)
	for _, cd := range res.Multiplet {
		stages := byCand[cd.Fault.String()]
		ref := stages[explain.StageRefine]
		if len(ref) != 1 || ref[0].Verdict != explain.VerdictSkipped {
			t.Errorf("%s: refine not marked skipped (%v)", cd.Fault.String(), ref)
		}
		if len(ref[0].Models) == 0 {
			t.Errorf("%s: skipped refine dropped the stuck-model fit", cd.Fault.String())
		}
		xc := stages[explain.StageXCheck]
		if len(xc) != 1 || xc[0].Verdict != explain.VerdictSkipped {
			t.Errorf("%s: xcheck not marked skipped (%v)", cd.Fault.String(), xc)
		}
	}
}

// TestExplainApproxCPTAttribution: the approximate-CPT ablation only knows
// per-pattern criticality, so extraction sources must use the documented
// PO=-1 pattern-level attribution.
func TestExplainApproxCPTAttribution(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	ds := []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}}
	rec := explain.New("test")
	res, _, _ := diagnoseInjected(t, c, pats, ds, Config{Explain: rec, ApproxCPT: true})
	if res.CandidatesExtracted == 0 {
		t.Skip("not activated")
	}
	evs, _ := rec.Events()
	checked := 0
	for _, ev := range evs {
		if ev.Stage != explain.StageExtract {
			continue
		}
		for _, b := range ev.Bits {
			if b.PO != -1 {
				t.Fatalf("%s: approx extraction attributed to PO %d", ev.Cand, b.PO)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no extraction sources recorded")
	}
}

// TestExplainDisabledIsUntraced: without a recorder, Diagnose must record
// nothing anywhere (the nil path the overhead budget is measured on).
func TestExplainDisabledIsUntraced(t *testing.T) {
	c := circuits.C17()
	pats := exhaustivePatterns(5)
	ds := []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}}
	res, _, _ := diagnoseInjected(t, c, pats, ds, Config{})
	if len(res.Multiplet) == 0 {
		t.Skip("not activated")
	}
	var rec *explain.Recorder
	if evs, dropped := rec.Events(); evs != nil || dropped != 0 {
		t.Fatal("nil recorder accumulated events")
	}
}

// TestExplainEventsIndependentOfWorkers: with a recorder attached,
// extraction and refinement still run their worker pools and emit their
// events afterwards, in pattern and multiplet order, so the event stream
// is identical at any worker count, on the exact and the approximate
// extraction path.
func TestExplainEventsIndependentOfWorkers(t *testing.T) {
	c, pats, log := parallelFixture(t, 300, 3)
	for _, approx := range []bool{false, true} {
		var want []explain.Event
		for _, workers := range []int{1, 2, 4} {
			rec := explain.New("test")
			if _, err := Diagnose(c, pats, log, Config{Workers: workers, ApproxCPT: approx, Explain: rec}); err != nil {
				t.Fatal(err)
			}
			evs, dropped := rec.Events()
			if dropped != 0 || len(evs) == 0 {
				t.Fatalf("approx=%v workers=%d: %d events, %d dropped", approx, workers, len(evs), dropped)
			}
			if want == nil {
				want = evs
				continue
			}
			if !reflect.DeepEqual(evs, want) {
				t.Fatalf("approx=%v workers=%d: events differ from the one-worker run", approx, workers)
			}
		}
	}
}
