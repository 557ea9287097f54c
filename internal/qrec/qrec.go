// Package qrec defines machine-readable diagnostic-quality records: one
// record per (campaign, method) of an experiment run, carrying the
// numbers the paper's claims rest on — site/region accuracy, success
// rate, resolution — plus the runtime context (ms/diagnosis, per-phase
// CPU, cone-cache hit rate).
//
// The experiment suite (internal/exp) collects records during a run;
// mdexp -quality-out serializes them deterministically (stable sort,
// stable float rendering) so a committed baseline file diffs cleanly; and
// `mdgate quality` compares a fresh run against that baseline, turning
// silent quality regressions into failing CI the same way `mdgate bench`
// guards ns/op. Quality numbers are deterministic from the campaign
// seeds, so an accuracy cell that moves is a semantic change, not noise;
// only the timing fields vary between machines, and the gate treats them
// as warn-only.
package qrec

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// Schema is the quality-record file schema version, bumped on any
// incompatible Record change so the gate refuses to compare across
// incompatible files instead of mis-reading them.
const Schema = 1

// Record is one (campaign, method) quality summary.
type Record struct {
	// Campaign is the suite's campaign label (e.g. "T3/b0300/2"); with
	// Method it forms the record's identity.
	Campaign string `json:"campaign"`
	// Circuit is the workload name, Mechanism the injected defect
	// population ("stuck", "open", "bridge" or "mixed"), Defects the
	// multiplicity.
	Circuit   string `json:"circuit"`
	Mechanism string `json:"mechanism,omitempty"`
	Defects   int    `json:"defects"`
	// Method is the diagnosis engine ("ours", "slat", "intersect", …).
	Method string `json:"method"`
	// Devices is how many activated devices the campaign diagnosed.
	Devices int `json:"devices"`
	// The quality core: deterministic given the campaign seeds.
	SiteAcc    float64 `json:"site_acc"`
	RegionAcc  float64 `json:"region_acc"`
	Success    float64 `json:"success"`
	Resolution float64 `json:"resolution"`
	// Runtime context: machine-dependent, compared warn-only.
	MsPerDiag float64 `json:"ms_per_diag"`
	// PhaseMS is the core engine's per-diagnosis CPU split in
	// milliseconds, keyed by phase name (ours only).
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`
	// ConeHitRate is the campaign cone cache's hit fraction (ours only;
	// informational — scheduling-dependent under parallelism).
	ConeHitRate float64 `json:"cone_hit_rate,omitempty"`
}

// Key is the record's identity within a file.
func (r Record) Key() string { return r.Campaign + "|" + r.Method }

// round3 keeps serialized timing floats short and diff-friendly.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// normalize rounds the machine-dependent fields; the quality core is kept
// bit-exact (those values are exact aggregates of the deterministic run).
func (r Record) normalize() Record {
	r.MsPerDiag = round3(r.MsPerDiag)
	r.ConeHitRate = round3(r.ConeHitRate)
	if r.PhaseMS != nil {
		ph := make(map[string]float64, len(r.PhaseMS))
		for k, v := range r.PhaseMS {
			ph[k] = round3(v)
		}
		r.PhaseMS = ph
	}
	return r
}

// File is the on-disk layout of a quality baseline.
type File struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

// Encode writes the file deterministically: records sorted by key,
// two-space indentation, one trailing newline (encoding/json renders
// map keys sorted, so PhaseMS is stable too).
func (f *File) Encode(w io.Writer) error {
	sorted := &File{Schema: f.Schema, Records: append([]Record(nil), f.Records...)}
	sort.SliceStable(sorted.Records, func(i, j int) bool {
		return sorted.Records[i].Key() < sorted.Records[j].Key()
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// Write serializes the file to path.
func Write(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Collector accumulates records from concurrent campaign workers. A nil
// *Collector ignores Add, so the experiment suite threads one pointer
// through unconditionally (the obs idiom).
type Collector struct {
	mu   sync.Mutex
	recs []Record
}

// Add appends one record (normalizing its timing floats).
func (c *Collector) Add(r Record) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.recs = append(c.recs, r.normalize())
	c.mu.Unlock()
}

// Len reports how many records were collected (0 on nil).
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// File snapshots the collected records as a schema-stamped file.
func (c *Collector) File() *File {
	f := &File{Schema: Schema}
	if c == nil {
		return f
	}
	c.mu.Lock()
	f.Records = append([]Record(nil), c.recs...)
	c.mu.Unlock()
	return f
}
