// Package serve is the long-running diagnosis service: circuits and test
// sets load once at startup into a workload registry (with a warm shared
// cone cache per workload), and tester responses arrive as HTTP/JSON
// requests. The service spine is a bounded admission queue per workload
// feeding an adaptive micro-batcher that coalesces concurrent requests
// for the same workload into one fault-parallel scoring pass
// (core.DiagnoseBatch), which is where serving beats per-process CLI
// throughput: the simulator, CPT and cone cache warmth amortize across
// requests instead of being rebuilt per invocation.
//
// Reports are bit-identical to mddiag for the same (circuit, patterns,
// response) — batching never changes a diagnosis, only when it runs —
// and the golden test pins that.
package serve

import (
	"fmt"
	"sort"

	"multidiag/internal/core"
	"multidiag/internal/netlist"
	"multidiag/internal/tester"
	"multidiag/internal/volume"
)

// DiagnoseRequest is the POST /v1/diagnose body: one device's observed
// failing behaviour against a registered workload. Exactly one of
// Datalog (the tester text serialization) or Response (structured JSON)
// carries the behaviour.
type DiagnoseRequest struct {
	Workload string `json:"workload"`
	// Datalog is a tester-format datalog (the same text mddiag -d reads).
	Datalog string `json:"datalog,omitempty"`
	// Response is the structured alternative to Datalog.
	Response *DeviceResponse `json:"response,omitempty"`
	// Top bounds the ranked-candidate tail of the report (default 10).
	Top *int `json:"top,omitempty"`
	// TimeoutMS overrides the server's per-request deadline when lower.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Explain attaches the flight-recorder narrative to the report. An
	// explained request runs solo (never coalesced): the recorder
	// instruments one diagnosis.
	Explain bool `json:"explain,omitempty"`
}

// DeviceResponse lists the failing (pattern, outputs) observations.
type DeviceResponse struct {
	Fails []volume.PatternFails `json:"fails"`
}

// BatchRequest is the POST /v1/diagnose/batch body: several devices of
// one workload. Devices are admitted individually, so one oversized batch
// can be partially shed; per-device outcomes are positional.
type BatchRequest struct {
	Workload  string          `json:"workload"`
	Devices   []DeviceRequest `json:"devices"`
	Top       *int            `json:"top,omitempty"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// DeviceRequest is one device inside a BatchRequest.
type DeviceRequest struct {
	Datalog  string          `json:"datalog,omitempty"`
	Response *DeviceResponse `json:"response,omitempty"`
}

// BatchReply is the batch response: one entry per requested device.
type BatchReply struct {
	Results []DeviceResult `json:"results"`
}

// DeviceResult is one device's outcome: an HTTP-style status plus either
// the report or the error text.
type DeviceResult struct {
	Status int     `json:"status"`
	Report *Report `json:"report,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Report is the wire form of a diagnosis result: the deterministic
// report core (volume.Report — a pure function of (circuit, patterns,
// response), embedded so its fields lead the JSON unchanged) plus the
// serving tail. The golden tests zero the timing fields (ElapsedMS,
// QueueWaitMS, BatchSize) and require the rest to match a direct
// core.Diagnose; the volume pipeline's fingerprint cache stores only the
// embedded core, which is why a cache hit is byte-identical to a fresh
// diagnosis.
type Report struct {
	volume.Report
	ElapsedMS   float64 `json:"elapsed_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	BatchSize   int     `json:"batch_size"`
	// RequestID echoes the response's X-Request-ID; TraceID names the
	// request's span tree (empty with tracing off). Both are join keys,
	// not diagnosis content — golden tests zero them with the timings.
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	Explain   string `json:"explain,omitempty"`
}

// BuildReport converts a core result into its wire form. It is exported
// so the golden tests can build the expected report from a direct
// core.Diagnose and require byte equality with the served one.
func BuildReport(workload string, c *netlist.Circuit, log *tester.Datalog, res *core.Result, top int) *Report {
	return &Report{
		Report:    *volume.BuildReport(workload, c, log, res, top),
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
}

// buildDatalog materializes a request's device behaviour as a tester
// datalog shaped for the workload. Once the request is known to carry
// exactly one of the two forms, it is volume's record builder, so a
// request and an ingested record with the same behaviour build the same
// datalog, and a malformed request fails the admission check (400)
// instead of the engine.
func buildDatalog(c *netlist.Circuit, numPatterns int, text string, resp *DeviceResponse) (*tester.Datalog, error) {
	switch {
	case text != "" && resp != nil:
		return nil, fmt.Errorf("request carries both datalog text and structured response")
	case text == "" && resp == nil:
		return nil, fmt.Errorf("request carries neither datalog text nor structured response")
	}
	rec := volume.Record{Datalog: text}
	if resp != nil {
		rec.Fails = resp.Fails
	}
	return rec.BuildDatalog(c, numPatterns)
}

// WorkloadInfo is one GET /v1/workloads entry.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Gates    int    `json:"gates"`
	PIs      int    `json:"pis"`
	POs      int    `json:"pos"`
	Patterns int    `json:"patterns"`
	// QueueDepth is the current number of queued requests.
	QueueDepth int `json:"queue_depth"`
}

func sortedNames(m map[string]*workload) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
