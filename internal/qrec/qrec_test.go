package qrec

import (
	"bytes"
	"strings"
	"testing"
)

func rec(campaign, method string, site float64) Record {
	return Record{
		Campaign: campaign, Circuit: "b0300", Mechanism: "mixed", Defects: 2,
		Method: method, Devices: 6,
		SiteAcc: site, RegionAcc: site, Success: site, Resolution: 4,
		MsPerDiag: 12.3456789, PhaseMS: map[string]float64{"score": 7.7777777},
		ConeHitRate: 0.61803398,
	}
}

// TestDeterministicSerialization: insertion order must not leak into the
// bytes — a parallel campaign's collection order is scheduling-dependent,
// but the committed baseline must diff cleanly.
func TestDeterministicSerialization(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	r1, r2, r3 := rec("T3/x/2", "ours", 1), rec("T3/x/2", "slat", 0.5), rec("T2/x/stuck", "ours", 1)
	for _, r := range []Record{r1, r2, r3} {
		a.Add(r)
	}
	for _, r := range []Record{r3, r2, r1} {
		b.Add(r)
	}
	var ab, bb bytes.Buffer
	if err := a.File().Encode(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.File().Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Fatalf("serialization depends on insertion order:\n%s\nvs\n%s", ab.String(), bb.String())
	}
	// Timing floats are rounded so diffs stay readable.
	if strings.Contains(ab.String(), "12.3456789") || !strings.Contains(ab.String(), "12.346") {
		t.Errorf("ms_per_diag not rounded:\n%s", ab.String())
	}
	if !strings.Contains(ab.String(), `"schema": 1`) {
		t.Errorf("file missing schema stamp:\n%s", ab.String())
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Add(rec("x", "ours", 1)) // must not panic
	if c.Len() != 0 {
		t.Error("nil collector has length")
	}
	if f := c.File(); f.Schema != Schema || len(f.Records) != 0 {
		t.Errorf("nil collector file: %+v", f)
	}
}
