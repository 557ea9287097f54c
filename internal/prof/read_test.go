package prof

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeStream(t *testing.T, name string, snaps []Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var enc *json.Encoder
	var zw *gzip.Writer
	if strings.HasSuffix(name, ".gz") {
		zw = gzip.NewWriter(f)
		enc = json.NewEncoder(zw)
	} else {
		enc = json.NewEncoder(f)
	}
	for _, s := range snaps {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func snap(kind string, seq int64, phases ...PhaseProf) Snapshot {
	return Snapshot{Schema: Schema, Kind: kind, Seq: seq, Phases: phases}
}

func TestLoadAndFinalAttribution(t *testing.T) {
	path := writeStream(t, "run.jsonl", []Snapshot{
		snap("sample", 0, PhaseProf{Name: "score", Count: 1, AllocBytes: 100}),
		snap("summary", 1, PhaseProf{Name: "score", Count: 2, AllocBytes: 250}),
		snap("pin", 2), // phase-less tail must not win
	})
	snaps, err := LoadSnapshots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("loaded %d snapshots, want 3", len(snaps))
	}
	final, err := Final(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if final.Seq != 1 || final.Phases[0].AllocBytes != 250 {
		t.Fatalf("final = %+v, want the seq-1 summary", final)
	}
}

func TestLoadSnapshotsGzipAndForeignSchema(t *testing.T) {
	path := writeStream(t, "run.jsonl.gz", []Snapshot{
		{Schema: "other/v1", Kind: "sample"},
		snap("summary", 0, PhaseProf{Name: "extract", Count: 1}),
	})
	snaps, err := LoadSnapshots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Phases[0].Name != "extract" {
		t.Fatalf("snaps = %+v, want just the mdprof record", snaps)
	}
}

func TestFinalAttributionEmpty(t *testing.T) {
	if _, err := Final([]Snapshot{snap("pin", 0)}); err == nil {
		t.Fatal("no error for a stream without phase tables")
	}
}

func TestPerCall(t *testing.T) {
	b := PerCall([]PhaseProf{
		{Name: "score", Count: 4, AllocBytes: 4000, AllocObjects: 40},
		{Name: "idle", Count: 0, AllocBytes: 999}, // zero-count phases dropped
	})
	if len(b.Phases) != 1 {
		t.Fatalf("phases = %+v", b.Phases)
	}
	p := b.Phases["score"]
	if p.AllocBytesPerCall != 1000 || p.AllocObjsPerCall != 10 {
		t.Fatalf("per-call = %+v, want 1000 B / 10 objs", p)
	}
}
