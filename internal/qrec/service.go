package qrec

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// ServiceSchema versions the serving-path record layout, independent of
// the campaign-quality Schema: the two files gate different surfaces
// (diagnostic quality vs service behaviour) and evolve separately.
const ServiceSchema = 1

// ServiceRecord is one diagnosis-service run summary: the admission and
// batching behaviour (requests, sheds, timeouts, panics, batch shape) and
// the end-to-end latency quantiles. mdserve writes one on shutdown;
// `mdgate serve` gates a fresh run against a baseline the way
// `mdgate quality` gates campaign quality.
type ServiceRecord struct {
	// Label identifies the run scenario (e.g. "smoke"); with nothing else
	// it is the record's identity within a file.
	Label string `json:"label"`
	// Workloads lists the registered workload names, sorted.
	Workloads []string `json:"workloads,omitempty"`
	// Admission and execution outcomes. Requests counts admitted requests;
	// Shed counts 429s; Timeouts counts requests whose deadline passed;
	// Panics counts isolated handler panics (any non-zero value gates).
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`
	// Batches counts scoring passes; MeanBatch = executed requests per
	// pass, the coalescing ratio the adaptive batcher exists to raise.
	Batches   int64   `json:"batches"`
	ShedRate  float64 `json:"shed_rate"`
	MeanBatch float64 `json:"mean_batch"`
	// Latency quantiles in milliseconds (machine-dependent; warn-only).
	QueueP95MS   float64 `json:"queue_p95_ms"`
	ServiceP50MS float64 `json:"service_p50_ms"`
	ServiceP95MS float64 `json:"service_p95_ms"`
	ServiceP99MS float64 `json:"service_p99_ms"`
	ServiceMaxMS float64 `json:"service_max_ms"`
	// FlaggedRequests samples the X-Request-IDs of notable outcomes
	// ("shed:<id>", "timeout:<id>", "panic:<id>"), newest last — the join
	// key into access logs and captured traces. Informational; never gates.
	FlaggedRequests []string `json:"flagged_requests,omitempty"`
}

// Key is the record's identity within a service file.
func (r ServiceRecord) Key() string { return r.Label }

func (r ServiceRecord) normalize() ServiceRecord {
	r.ShedRate = round3(r.ShedRate)
	r.MeanBatch = round3(r.MeanBatch)
	r.QueueP95MS = round3(r.QueueP95MS)
	r.ServiceP50MS = round3(r.ServiceP50MS)
	r.ServiceP95MS = round3(r.ServiceP95MS)
	r.ServiceP99MS = round3(r.ServiceP99MS)
	r.ServiceMaxMS = round3(r.ServiceMaxMS)
	return r
}

// ServiceFile is the on-disk layout of a service baseline.
type ServiceFile struct {
	Schema  int             `json:"schema"`
	Records []ServiceRecord `json:"records"`
}

// AddService appends a normalized record.
func (f *ServiceFile) AddService(r ServiceRecord) {
	f.Records = append(f.Records, r.normalize())
}

// Encode writes the file deterministically (sorted records, stable
// floats), matching File.Encode.
func (f *ServiceFile) Encode(w io.Writer) error {
	sorted := &ServiceFile{Schema: f.Schema, Records: append([]ServiceRecord(nil), f.Records...)}
	sort.SliceStable(sorted.Records, func(i, j int) bool {
		return sorted.Records[i].Key() < sorted.Records[j].Key()
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// WriteService serializes a service file to path.
func WriteService(path string, f *ServiceFile) error {
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
