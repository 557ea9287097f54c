package volume

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// SummarySchema versions the aggregate summary JSON.
const SummarySchema = "mdvol/summary/v1"

// DefaultParetoTop bounds each site's Pareto table.
const DefaultParetoTop = 10

// Aggregator incrementally folds deduped per-device reports into the
// fleet aggregate: per-site suspect Pareto tables, defect-class trend
// series and dedupe-ratio stats. Every fold is commutative (counter
// increments and set inserts only), so the emitted Summary is a pure
// function of the folded multiset — byte-identical across runs, worker
// counts, fold orders and cache states. Uniqueness is counted against
// the aggregator's own seen-fingerprint set, never the cache, so
// eviction cannot skew the dedupe ratio.
//
// All methods are safe for concurrent use.
type Aggregator struct {
	workload  string
	paretoTop int

	mu      sync.Mutex
	devices int64
	failing int64
	seen    map[Fingerprint]struct{}
	sites   map[string]*siteAgg
	trend   map[int64]map[string]int64
}

// siteAgg is one site's running tallies.
type siteAgg struct {
	devices int64
	failing int64
	pareto  map[string]int64
	classes map[string]int64
}

// NewAggregator creates an empty aggregate for one workload. paretoTop
// bounds each site's Pareto table (0 selects DefaultParetoTop).
func NewAggregator(workload string, paretoTop int) *Aggregator {
	if paretoTop <= 0 {
		paretoTop = DefaultParetoTop
	}
	return &Aggregator{
		workload:  workload,
		paretoTop: paretoTop,
		seen:      make(map[Fingerprint]struct{}),
		sites:     make(map[string]*siteAgg),
		trend:     make(map[int64]map[string]int64),
	}
}

// Add folds one device: its site, its trend bucket (computed by the
// caller from the stream ordinal or timestamp) and its deduped report
// entry. The same entry pointer is folded once per device carrying that
// syndrome — duplicates count as devices, which is the point of fleet
// aggregation.
func (a *Aggregator) Add(site string, bucket int64, e *Entry) {
	failing := e.Report.FailingPatterns > 0
	a.mu.Lock()
	defer a.mu.Unlock()
	a.devices++
	if failing {
		a.failing++
	}
	a.seen[e.Fingerprint] = struct{}{}
	sa, ok := a.sites[site]
	if !ok {
		sa = &siteAgg{pareto: make(map[string]int64), classes: make(map[string]int64)}
		a.sites[site] = sa
	}
	sa.devices++
	if failing {
		sa.failing++
	}
	sa.classes[e.Class]++
	for _, cd := range e.Report.Multiplet {
		sa.pareto[cd.Name]++
	}
	tb, ok := a.trend[bucket]
	if !ok {
		tb = make(map[string]int64)
		a.trend[bucket] = tb
	}
	tb[e.Class]++
}

// Devices returns the number of devices folded so far.
func (a *Aggregator) Devices() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.devices
}

// Summary is the aggregate in wire form. All slices carry a total order
// (explicit sort keys, ties broken by name/bucket), so the JSON encoding
// is deterministic.
type Summary struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	// Devices counts every folded device; Failing those with at least one
	// failing pattern; UniqueSyndromes the distinct fingerprints.
	Devices         int64 `json:"devices"`
	Failing         int64 `json:"failing"`
	UniqueSyndromes int64 `json:"unique_syndromes"`
	// DedupeRatio is repeats/devices, rounded to 3 decimals (0 when no
	// devices): the fraction of the stream answered without the engine
	// under an unbounded cache.
	DedupeRatio float64       `json:"dedupe_ratio"`
	Classes     []ClassCount  `json:"classes,omitempty"`
	Sites       []SiteSummary `json:"sites,omitempty"`
	Trend       []TrendBucket `json:"trend,omitempty"`
}

// SiteSummary is one site's row.
type SiteSummary struct {
	Site    string       `json:"site"`
	Devices int64        `json:"devices"`
	Failing int64        `json:"failing"`
	Pareto  []ParetoRow  `json:"pareto,omitempty"`
	Classes []ClassCount `json:"classes,omitempty"`
}

// ParetoRow is one suspect site in a Pareto table: how many devices'
// multiplets named it.
type ParetoRow struct {
	Suspect string `json:"suspect"`
	Devices int64  `json:"devices"`
}

// ClassCount is one defect class's device count.
type ClassCount struct {
	Class   string `json:"class"`
	Devices int64  `json:"devices"`
}

// TrendBucket is one trend-series point: defect-class counts within one
// ordinal (or time) bucket.
type TrendBucket struct {
	Bucket  int64        `json:"bucket"`
	Classes []ClassCount `json:"classes"`
}

// Summary snapshots the aggregate in deterministic order: sites by name,
// Pareto rows by count desc then suspect name, classes by count desc
// then class name, trend buckets ascending.
func (a *Aggregator) Summary() *Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &Summary{
		Schema:          SummarySchema,
		Workload:        a.workload,
		Devices:         a.devices,
		Failing:         a.failing,
		UniqueSyndromes: int64(len(a.seen)),
	}
	if a.devices > 0 {
		s.DedupeRatio = round3(float64(a.devices-int64(len(a.seen))) / float64(a.devices))
	}
	global := make(map[string]int64)
	siteNames := make([]string, 0, len(a.sites))
	for name := range a.sites {
		siteNames = append(siteNames, name)
	}
	sort.Strings(siteNames)
	for _, name := range siteNames {
		sa := a.sites[name]
		row := SiteSummary{
			Site:    name,
			Devices: sa.devices,
			Failing: sa.failing,
			Pareto:  sortCounts(sa.pareto, a.paretoTop, func(k string, v int64) ParetoRow { return ParetoRow{Suspect: k, Devices: v} }),
			Classes: sortCounts(sa.classes, 0, func(k string, v int64) ClassCount { return ClassCount{Class: k, Devices: v} }),
		}
		for class, n := range sa.classes {
			global[class] += n
		}
		s.Sites = append(s.Sites, row)
	}
	s.Classes = sortCounts(global, 0, func(k string, v int64) ClassCount { return ClassCount{Class: k, Devices: v} })
	buckets := make([]int64, 0, len(a.trend))
	for b := range a.trend {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	for _, b := range buckets {
		s.Trend = append(s.Trend, TrendBucket{
			Bucket:  b,
			Classes: sortCounts(a.trend[b], 0, func(k string, v int64) ClassCount { return ClassCount{Class: k, Devices: v} }),
		})
	}
	return s
}

// sortCounts renders a count map as rows ordered by count descending,
// ties by key ascending, keeping the top rows (0 = all).
func sortCounts[T any](m map[string]int64, top int, mk func(string, int64) T) []T {
	type kv struct {
		k string
		v int64
	}
	rows := make([]kv, 0, len(m))
	for k, v := range m {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	out := make([]T, 0, len(rows))
	for _, r := range rows {
		out = append(out, mk(r.k, r.v))
	}
	return out
}

// round3 rounds to 3 decimals so float formatting stays stable across
// platforms (the qrec convention).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// WriteSummary emits the summary as indented JSON with a trailing
// newline — the shared emitter for mdvol -summary-out and the serve
// GET /v1/volume/summary endpoint, so the two sides diff cleanly.
func WriteSummary(w io.Writer, s *Summary) error {
	b, err := encodeIndent(s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encodeIndent is json.MarshalIndent plus the trailing newline.
func encodeIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("volume: encode summary: %w", err)
	}
	return append(b, '\n'), nil
}
