package gate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multidiag/internal/prof"
)

// TestProfCatchesInflation is the acceptance check: a synthetic 2× per-
// phase allocation inflation must fail the gate at the 50% failure
// threshold.
func TestProfCatchesInflation(t *testing.T) {
	base := prof.PerCall([]prof.PhaseProf{
		{Name: "score", Count: 10, AllocBytes: 1_000_000, AllocObjects: 50_000},
		{Name: "extract", Count: 10, AllocBytes: 1_000_000, AllocObjects: 10_000},
	})
	cur := prof.PerCall([]prof.PhaseProf{
		{Name: "score", Count: 10, AllocBytes: 2_000_000, AllocObjects: 100_000},  // 2× — must fail
		{Name: "extract", Count: 10, AllocBytes: 1_300_000, AllocObjects: 10_000}, // +30% — warns
	})
	var out strings.Builder
	warnings, failures := count(Prof(&out, base, cur))
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (2× inflation)\n%s", failures, out.String())
	}
	if warnings != 1 {
		t.Fatalf("warnings = %d, want 1 (+30%% bytes)\n%s", warnings, out.String())
	}
}

func TestProfCleanRun(t *testing.T) {
	base := prof.PerCall([]prof.PhaseProf{{Name: "score", Count: 10, AllocBytes: 10000, AllocObjects: 500}})
	cur := prof.PerCall([]prof.PhaseProf{
		{Name: "score", Count: 10, AllocBytes: 10500, AllocObjects: 510},
		{Name: "newphase", Count: 1, AllocBytes: 999999}, // new phases report, never fail
	})
	var out strings.Builder
	if warnings, failures := count(Prof(&out, base, cur)); warnings != 0 || failures != 0 {
		t.Fatalf("warnings=%d failures=%d, want 0/0\n%s", warnings, failures, out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Fatalf("new phase not reported:\n%s", out.String())
	}
}

func TestProfObjectRegressionDominates(t *testing.T) {
	// Bytes flat, objects 2×: the gate takes the worse of the two.
	base := prof.PerCall([]prof.PhaseProf{{Name: "score", Count: 10, AllocBytes: 1_000_000, AllocObjects: 100_000}})
	cur := prof.PerCall([]prof.PhaseProf{{Name: "score", Count: 10, AllocBytes: 1_000_000, AllocObjects: 200_000}})
	var out strings.Builder
	fs := Prof(&out, base, cur)
	if _, failures := count(fs); failures != 1 {
		t.Fatalf("failures = %d, want 1 (objects doubled)\n%s", failures, out.String())
	}
	if !strings.Contains(fs[0].Message, "objs/call") {
		t.Fatalf("finding does not name the objects dimension: %v", fs[0])
	}
}

func TestProfNoiseFloor(t *testing.T) {
	// A tiny phase doubling (2.6KiB → 5.3KiB, +3 objects) is run-to-run
	// noise, not a regression: below the byte and object floors nothing
	// may warn or fail regardless of the percentage.
	base := prof.PerCall([]prof.PhaseProf{{Name: "xcheck", Count: 10, AllocBytes: 26_880, AllocObjects: 50}})
	cur := prof.PerCall([]prof.PhaseProf{{Name: "xcheck", Count: 10, AllocBytes: 53_760, AllocObjects: 80}})
	var out strings.Builder
	if warnings, failures := count(Prof(&out, base, cur)); warnings != 0 || failures != 0 {
		t.Fatalf("warnings=%d failures=%d, want 0/0 below the noise floors\n%s", warnings, failures, out.String())
	}
}

func TestProfBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "PROF_baseline.json")
	b := prof.PerCall([]prof.PhaseProf{{Name: "score", Count: 2, AllocBytes: 500, AllocObjects: 20}})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(f).Encode(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadProfBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phases["score"].AllocBytesPerCall != 250 {
		t.Fatalf("round-trip = %+v", got.Phases)
	}
}

func TestLoadProfBaselineRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte(`{"schema":"nope/v1","phases":{"x":{}}}`), 0o644)
	if _, err := LoadProfBaseline(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
