package gate

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multidiag/internal/qrec"
	"multidiag/internal/volume"
)

func rec(campaign, method string, site float64) qrec.Record {
	return qrec.Record{
		Campaign: campaign, Circuit: "b0300", Mechanism: "mixed", Defects: 2,
		Method: method, Devices: 6,
		SiteAcc: site, RegionAcc: site, Success: site, Resolution: 4,
		MsPerDiag: 12.3456789, PhaseMS: map[string]float64{"score": 7.7777777},
		ConeHitRate: 0.61803398,
	}
}

func findings(fs []Finding, level string) int {
	n := 0
	for _, f := range fs {
		if f.Level == level {
			n++
		}
	}
	return n
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQualityGates pins the gate semantics: identical files are clean, an
// accuracy drop past the threshold is an error, resolution/latency growth
// warns, one-sided records never gate.
func TestQualityGates(t *testing.T) {
	base := &qrec.File{Schema: qrec.Schema, Records: []qrec.Record{
		rec("T3/x/2", "ours", 1), rec("T3/x/3", "ours", 0.9),
	}}

	var out bytes.Buffer
	if fs := Quality(&out, base, base); len(fs) != 0 {
		t.Fatalf("self-compare found %v", fs)
	}
	if !strings.Contains(out.String(), "T3/x/2") {
		t.Errorf("delta table missing campaign:\n%s", out.String())
	}

	// Corrupt one accuracy cell past the hard threshold: error.
	cur := &qrec.File{Schema: qrec.Schema, Records: []qrec.Record{
		rec("T3/x/2", "ours", 1), rec("T3/x/3", "ours", 0.9-accuracyDrop.Fail-0.01),
	}}
	fs := Quality(&out, base, cur)
	// Site, region and success all carry the corrupted value.
	if findings(fs, Error) != 3 || findings(fs, Warning) != 0 {
		t.Fatalf("corrupted accuracy: findings %v", fs)
	}
	if !strings.Contains(fs[0].Message, "T3/x/3") {
		t.Errorf("finding does not name the record: %v", fs[0])
	}

	// A drop inside the threshold passes.
	cur.Records[1].SiteAcc = 0.9 - accuracyDrop.Fail + 0.001
	cur.Records[1].RegionAcc = cur.Records[1].SiteAcc
	cur.Records[1].Success = cur.Records[1].SiteAcc
	if fs := Quality(&out, base, cur); len(fs) != 0 {
		t.Fatalf("in-threshold drop gated: %v", fs)
	}

	// Resolution and latency growth warn but never error.
	worse := rec("T3/x/2", "ours", 1)
	worse.Resolution *= 2
	worse.MsPerDiag *= 4
	cur = &qrec.File{Schema: qrec.Schema, Records: []qrec.Record{worse, rec("T3/x/3", "ours", 0.9)}}
	fs = Quality(&out, base, cur)
	if findings(fs, Error) != 0 || findings(fs, Warning) != 2 {
		t.Fatalf("resolution/latency drift: findings %v", fs)
	}

	// One-sided records report but do not gate.
	cur = &qrec.File{Schema: qrec.Schema, Records: []qrec.Record{rec("T3/x/2", "ours", 1), rec("NEW/y/4", "ours", 1)}}
	out.Reset()
	if fs := Quality(&out, base, cur); len(fs) != 0 {
		t.Fatalf("one-sided records gated: %v", fs)
	}
	for _, want := range []string{"gone from current", "new (not in baseline)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table missing %q:\n%s", want, out.String())
		}
	}
}

func TestQualitySchemaMismatch(t *testing.T) {
	base := &qrec.File{Schema: qrec.Schema, Records: []qrec.Record{rec("T3/x/2", "ours", 1)}}
	cur := &qrec.File{Schema: qrec.Schema + 1, Records: []qrec.Record{rec("T3/x/2", "ours", 1)}}
	fs := Quality(&bytes.Buffer{}, base, cur)
	if len(fs) != 1 || fs[0].Level != Error || !strings.Contains(fs[0].Message, "schema mismatch") {
		t.Fatalf("schema mismatch findings: %v", fs)
	}
}

func TestLoadQualityRoundTripAndRejects(t *testing.T) {
	c := &qrec.Collector{}
	c.Add(rec("T3/x/2", "ours", 0.75))
	var buf bytes.Buffer
	if err := c.File().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := LoadQuality(writeTemp(t, buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != qrec.Schema || len(f.Records) != 1 || f.Records[0].SiteAcc != 0.75 {
		t.Fatalf("round trip mangled file: %+v", f)
	}
	for _, junk := range []string{"", "{}", `{"schema":1}`, `{"benchmarks":{}}`, "not json"} {
		if _, err := LoadQuality(writeTemp(t, junk)); err == nil {
			t.Errorf("LoadQuality accepted %q", junk)
		}
	}
}

func sampleService(label string) qrec.ServiceRecord {
	return qrec.ServiceRecord{
		Label:        label,
		Workloads:    []string{"b0300", "c17"},
		Requests:     120,
		Batches:      40,
		MeanBatch:    3.0,
		ShedRate:     0.01,
		Shed:         1,
		QueueP95MS:   0.42,
		ServiceP50MS: 1.5,
		ServiceP95MS: 4.2,
		ServiceP99MS: 6.8,
		ServiceMaxMS: 9.1,
	}
}

func TestLoadServiceRejectsWrongShape(t *testing.T) {
	if _, err := LoadService(writeTemp(t, `{"some":"json"}`)); err == nil {
		t.Error("accepted a non-service file")
	}
	if _, err := LoadService(writeTemp(t, `not json`)); err == nil {
		t.Error("accepted garbage")
	}
}

func TestServeGates(t *testing.T) {
	base := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
	base.AddService(sampleService("smoke"))

	t.Run("clean", func(t *testing.T) {
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		cur.AddService(sampleService("smoke"))
		if fs := Serve(io.Discard, base, cur); len(fs) != 0 {
			t.Errorf("identical runs produced findings: %+v", fs)
		}
	})
	t.Run("shed-rate-error", func(t *testing.T) {
		r := sampleService("smoke")
		r.ShedRate = 0.2
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		cur.AddService(r)
		if fs := Serve(io.Discard, base, cur); findings(fs, Error) != 1 {
			t.Errorf("shed-rate jump not an error: %+v", fs)
		}
	})
	t.Run("panic-error", func(t *testing.T) {
		r := sampleService("smoke")
		r.Panics = 1
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		cur.AddService(r)
		if fs := Serve(io.Discard, base, cur); findings(fs, Error) != 1 {
			t.Errorf("panic not an error: %+v", fs)
		}
	})
	t.Run("latency-warning", func(t *testing.T) {
		r := sampleService("smoke")
		r.ServiceP95MS = 20 // ~376% over 4.2ms baseline
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		cur.AddService(r)
		if fs := Serve(io.Discard, base, cur); findings(fs, Error) != 0 || findings(fs, Warning) != 1 {
			t.Errorf("latency slowdown should warn only: %+v", fs)
		}
	})
	t.Run("one-sided-never-fatal", func(t *testing.T) {
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		cur.AddService(sampleService("other"))
		if fs := Serve(io.Discard, base, cur); len(fs) != 0 {
			t.Errorf("one-sided records should report, not gate: %+v", fs)
		}
	})
	t.Run("schema-mismatch", func(t *testing.T) {
		cur := &qrec.ServiceFile{Schema: qrec.ServiceSchema + 1}
		cur.AddService(sampleService("smoke"))
		if fs := Serve(io.Discard, base, cur); len(fs) != 1 || fs[0].Level != Error {
			t.Errorf("schema mismatch: %+v", fs)
		}
	})
}

func volSummary() *volume.Summary {
	return &volume.Summary{
		Schema:          volume.SummarySchema,
		Workload:        "c17",
		Devices:         200,
		Failing:         198,
		UniqueSyndromes: 20,
		DedupeRatio:     0.9,
		Classes: []volume.ClassCount{
			{Class: "sa0", Devices: 150},
			{Class: "bridge", Devices: 50},
		},
	}
}

func TestVolumeClean(t *testing.T) {
	var out strings.Builder
	if fs := Volume(&out, volSummary(), volSummary()); len(fs) != 0 {
		t.Fatalf("identical summaries produced findings: %+v", fs)
	}
}

func TestVolumeDedupeDrop(t *testing.T) {
	cur := volSummary()
	cur.DedupeRatio = 0.8
	var out strings.Builder
	fs := Volume(&out, volSummary(), cur)
	if len(fs) == 0 || fs[0].Level != Error || !strings.Contains(fs[0].Message, "dedupe ratio dropped") {
		t.Fatalf("dedupe drop not gated: %+v", fs)
	}
}

func TestVolumeUniqueGrowth(t *testing.T) {
	cur := volSummary()
	cur.UniqueSyndromes = 25 // +25% > 10% threshold
	var out strings.Builder
	found := false
	for _, f := range Volume(&out, volSummary(), cur) {
		if strings.Contains(f.Message, "unique syndromes grew") {
			found = true
		}
	}
	if !found {
		t.Fatal("unique-syndrome growth not gated")
	}
}

func TestVolumeClassDistribution(t *testing.T) {
	cur := volSummary()
	cur.Classes[1] = volume.ClassCount{Class: "sa1", Devices: 50}
	var out strings.Builder
	fs := Volume(&out, volSummary(), cur)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "defect-class distribution changed") {
		t.Fatalf("class change not gated: %+v", fs)
	}
}

func TestVolumeDeviceMismatchShortCircuits(t *testing.T) {
	cur := volSummary()
	cur.Devices = 100
	cur.DedupeRatio = 0 // would also trip, but the count error wins alone
	var out strings.Builder
	fs := Volume(&out, volSummary(), cur)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "device count changed") {
		t.Fatalf("device mismatch not short-circuited: %+v", fs)
	}
}

func TestVolumeSchemaMismatch(t *testing.T) {
	cur := volSummary()
	cur.Schema = "mdvol/summary/v2"
	var out strings.Builder
	fs := Volume(&out, volSummary(), cur)
	if len(fs) != 1 || fs[0].Key != "schema" {
		t.Fatalf("schema mismatch not gated: %+v", fs)
	}
}
