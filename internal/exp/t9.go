package exp

import (
	"io"

	"multidiag/internal/compact"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/metrics"
	"multidiag/internal/report"
)

// T9Compaction measures diagnosis under test-response compaction
// (DESIGN.md addendum): the same injected devices are diagnosed from the
// raw PO datalog (the core engine) and from X-compact-compressed datalogs
// at increasing compression ratios. Expected shape: graceful degradation —
// region accuracy erodes slowly as aliasing destroys evidence, while the
// engine never claims more than the compressed evidence supports.
func T9Compaction(w io.Writer, o Options) error {
	o.fill()
	tr, finish := tableTrace(o, "T9")
	t := report.NewTable("T9: diagnosis under response compaction",
		"circuit", "#defects", "configuration", "activated", "region acc", "resolution")
	name := "b0300"
	if !o.Quick {
		name = "b0500"
	}
	wl, err := workload(name)
	if err != nil {
		return err
	}
	c := wl.Circuit
	for _, mult := range []int{1, 3} {
		devs, err := makeDevices(wl, o.Seeds, mult, int64(90_000+mult), defect.CampaignConfig{})
		if err != nil {
			return err
		}
		// Raw-PO reference row via the core engine.
		var raw metrics.Aggregate
		for _, dev := range devs {
			res, err := core.Diagnose(c, wl.Patterns, dev.log, core.Config{Trace: tr})
			if err != nil {
				return err
			}
			var cands []metrics.Candidate
			for _, nets := range res.MultipletNets() {
				cands = append(cands, metrics.Candidate{Nets: nets})
			}
			raw.Add(metrics.EvaluateRegion(c, dev.defects, cands, o.Radius))
		}
		t.AddRow(name, mult, "raw POs (no compaction)", len(devs), raw.MeanAccuracy(), raw.MeanResolution())

		for _, ratio := range []int{2, 4, 8} {
			numOut := (len(c.POs) + ratio - 1) / ratio
			if numOut < 1 {
				numOut = 1
			}
			cp, err := compact.NewXCompact(len(c.POs), numOut, 2, int64(ratio))
			if err != nil {
				return err
			}
			var agg metrics.Aggregate
			activated := 0
			for _, dev := range devs {
				clog := cp.CompressDatalog(dev.log)
				if len(clog.Fails) == 0 {
					continue // fully aliased: test escape under compaction
				}
				activated++
				sp := tr.Span("exp.compact_diagnose")
				res, err := compact.Diagnose(c, wl.Patterns, clog, cp, 0, 0)
				sp.End()
				if err != nil {
					return err
				}
				tr.Registry().Counter("exp.devices").Inc()
				var cands []metrics.Candidate
				for _, nets := range res.MultipletNets() {
					cands = append(cands, metrics.Candidate{Nets: nets})
				}
				agg.Add(metrics.EvaluateRegion(c, dev.defects, cands, o.Radius))
			}
			label := ratioLabel(ratio)
			if activated == 0 {
				t.AddRow(name, mult, label, 0, "-", "-")
				continue
			}
			t.AddRow(name, mult, label, activated, agg.MeanAccuracy(), agg.MeanResolution())
		}
	}
	if err := finish(); err != nil {
		return err
	}
	return t.Render(w)
}

func ratioLabel(r int) string {
	return map[int]string{2: "2:1 X-compact", 4: "4:1 X-compact", 8: "8:1 X-compact"}[r]
}
