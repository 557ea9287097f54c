package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// runSeconds is how long one run measures unless --seconds overrides it.
const runSeconds = 20

// workloadDef is one workload: its name on the command line and the
// reason it exists (which layers it stresses and which it bypasses).
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"cli-b1000", "cold mddiag path, one device at a time, nothing cached: engine and parallel-scaling changes show here, serve and volume changes must not"},
	{"serve-b1000", "same devices as open-loop HTTP traffic at 2.5 rps on a warm in-process mdserve: queue, batcher, HTTP and encode changes show here"},
	{"vol-b0300", "mdvol ingest of a 99.5%-repeat JSONL stream: decode, fingerprint, cache and aggregation dominate, the engine runs for ~0.5% of records"},
}

// metricDef is one reported number. Bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
// Moves says what the metric means (end-to-end) or which end-to-end
// metric on which workload it should move (per-layer).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "start to ready for the first timed device (input load, serve.New/NewIngester, listener, warm-up); median of several set-ups"},
	{"latency_p50_ms", "ms", "lower", 0.24, "median per-device latency, datalog bytes handed over to report bytes received (serve: per request, from its scheduled send; vol: time per report line over windows of 1000 lines)"},
	{"latency_tail_ms", "ms", "lower", 0.24, "highest whole percentile with >=10 samples beyond it; percentile and sample count are printed beside it"},
	{"devices_per_s", "1/s", "higher", 0.24, "devices with a correct report per second of timed wall time (serve: answered within the latency limit)"},
	{"cpu_ms_per_device", "ms", "lower", 0.2, "process user+sys CPU time per device over the timed window"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "process RSS high-water mark at the end of the timed window"},
	{"success_rate", "ratio", "higher", 0.2, "share of judged devices whose multiplet localizes every injected defect (metrics.Evaluate); deterministic per seed"},
	{"resolution", "suspects", "lower", 0.2, "mean multiplet size over judged devices (metrics.Aggregate.MeanResolution); deterministic per seed"},
}

// perLayer are the metrics of the traced run (--trace 1). A layer that is
// not on a workload's path reports 0 there (printed as n/a).
var perLayer = []metricDef{
	{"core.diagnose_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000 and @serve-b1000; devices_per_s @vol-b0300"},
	{"core.evidence_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.goodsim_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000 (near 0 on serve and vol: shared simulator)"},
	{"core.extract_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.score_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"fsim.parallel_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.cover_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.refine_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.xcheck_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"fsim.worker_busy_ratio", "ratio", "higher", 0, "latency_p50_ms @cli-b1000"},
	{"core.serial_share", "ratio", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.seeds_per_device", "count", "lower", 0, "cpu_ms_per_device @cli-b1000"},
	{"fsim.sims_per_device", "count", "lower", 0, "cpu_ms_per_device @cli-b1000"},
	{"fsim.gate_word_evals_per_device", "count", "lower", 0, "cpu_ms_per_device @cli-b1000"},
	{"cpt.stem_flips_per_device", "count", "lower", 0, "cpu_ms_per_device @cli-b1000"},
	{"core.candidates_per_sim", "ratio", "higher", 0, "cpu_ms_per_device @cli-b1000"},
	{"core.alloc_kb_per_device", "KiB", "lower", 0, "peak_rss_mb and cpu_ms_per_device @cli-b1000"},
	{"fsim.cone_cache_hit_ratio", "ratio", "higher", 0, "latency_p50_ms @serve-b1000; devices_per_s @vol-b0300"},
	{"cio.load_circuit_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"tester.read_patterns_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"tester.read_datalog_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"core.write_report_ms", "ms", "lower", 0, "latency_p50_ms @cli-b1000"},
	{"serve.request_ms", "ms", "lower", 0, "latency_p50_ms @serve-b1000"},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0, "latency_tail_ms @serve-b1000"},
	{"serve.queue_wait_tail_ms", "ms", "lower", 0, "latency_tail_ms @serve-b1000"},
	{"serve.overhead_ms", "ms", "lower", 0, "latency_p50_ms @serve-b1000"},
	{"serve.batch_size_mean", "devices", "higher", 0, "latency_tail_ms and devices_per_s @serve-b1000"},
	{"core.batch_seed_reuse_ratio", "ratio", "higher", 0, "cpu_ms_per_device @serve-b1000"},
	{"serve.shed_ratio", "ratio", "lower", 0, "failed_ratio and devices_per_s @serve-b1000"},
	{"loadgen.conn_wait_tail_ms", "ms", "lower", 0, "latency_tail_ms @serve-b1000"},
	{"loadgen.lag_max_ms", "ms", "lower", 0, "nothing; must stay near 0 or the serve run is invalid"},
	{"volume.ingest_s", "s", "lower", 0, "devices_per_s @vol-b0300"},
	{"volume.dedupe_hit_ratio", "ratio", "higher", 0, "devices_per_s @vol-b0300"},
	{"volume.engine_runs", "count", "lower", 0, "devices_per_s @vol-b0300; must equal the stream's distinct syndromes"},
	{"volume.engine_share", "ratio", "lower", 0, "devices_per_s @vol-b0300; says whether a change landed in the engine or the volume layer"},
	{"volume.decode_us", "us", "lower", 0, "devices_per_s @vol-b0300"},
	{"volume.fingerprint_us", "us", "lower", 0, "devices_per_s @vol-b0300"},
	{"volume.encode_us", "us", "lower", 0, "devices_per_s @vol-b0300"},
	{"volume.summary_ms", "ms", "lower", 0, "devices_per_s @vol-b0300"},
	{"volume.cache_evictions", "count", "lower", 0, "devices_per_s @vol-b0300; stays 0 while the working set fits"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "nothing; the cost of the traced run against the untraced one"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// benchmarkFile is the layout of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []specWorkload  `json:"workloads"`
	EndToEnd   []specEndToEnd  `json:"end_to_end"`
	PerLayer   []specLayerItem `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayerItem struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// writeSpec renders BENCHMARK.json from the tables above, so the file and
// the metrics the benchmark prints cannot drift apart.
func writeSpec(w io.Writer) error {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloadDefs {
		f.Workloads = append(f.Workloads, specWorkload{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, specEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, specLayerItem{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// describe prints every metric with its unit, direction and meaning —
// the part of the benchmark's documentation BENCHMARK.json has no field
// for.
func describe(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloadDefs {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END (--trace 0)\tUNIT\tBETTER\tBOUND\tDEFINITION")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Moves)
	}
	fmt.Fprintln(tw, "\nPER-LAYER (--trace 1)\tUNIT\tBETTER\tSHOULD MOVE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	return tw.Flush()
}
