package prof

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// LoadSnapshots reads an mdprof/v1 JSONL stream ("-" = stdin, ".gz"
// decompresses), skipping records with other schemas so a mixed sink
// still parses.
func LoadSnapshots(path string) ([]Snapshot, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
		if strings.HasSuffix(path, ".gz") {
			zr, err := gzip.NewReader(f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			defer zr.Close()
			r = zr
		}
	}
	var out []Snapshot
	dec := json.NewDecoder(r)
	for {
		var s Snapshot
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s.Schema == Schema {
			out = append(out, s)
		}
	}
	return out, nil
}

// Final returns the last record carrying a phase table — the run's
// cumulative state. Records are scanned back-to-front so a stream that
// ends in phase-less pin records still resolves.
func Final(snaps []Snapshot) (Snapshot, error) {
	for i := len(snaps) - 1; i >= 0; i-- {
		if len(snaps[i].Phases) > 0 {
			return snaps[i], nil
		}
	}
	return Snapshot{}, fmt.Errorf("no snapshot with a phase table (was the engine run with -prof?)")
}

// LoadFinal is LoadSnapshots followed by Final.
func LoadFinal(path string) (Snapshot, error) {
	snaps, err := LoadSnapshots(path)
	if err != nil {
		return Snapshot{}, err
	}
	return Final(snaps)
}

// BaselineSchema identifies committed per-phase baselines.
const BaselineSchema = "mdprof-baseline/v1"

// PhaseBaseline is one phase's committed per-call allocation budget.
type PhaseBaseline struct {
	Count             int64   `json:"n"`
	AllocBytesPerCall float64 `json:"alloc_bytes_per_call"`
	AllocObjsPerCall  float64 `json:"alloc_objects_per_call"`
}

// Baseline is the committed PROF_baseline.json layout.
type Baseline struct {
	Schema string                   `json:"schema"`
	Phases map[string]PhaseBaseline `json:"phases"`
}

// PerCall normalizes a phase table to per-call averages, dropping
// phases that never ran.
func PerCall(phases []PhaseProf) *Baseline {
	b := &Baseline{Schema: BaselineSchema, Phases: map[string]PhaseBaseline{}}
	for _, p := range phases {
		if p.Count == 0 {
			continue
		}
		b.Phases[p.Name] = PhaseBaseline{
			Count:             p.Count,
			AllocBytesPerCall: float64(p.AllocBytes) / float64(p.Count),
			AllocObjsPerCall:  float64(p.AllocObjects) / float64(p.Count),
		}
	}
	return b
}
