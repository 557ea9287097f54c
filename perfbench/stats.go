package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the highest whole percentile of xs with at least ten samples
// beyond it, by nearest rank. Below twenty samples that percentile would
// sit under the median, so the tail falls back to the maximum and
// reports the percentile as 100.
type tail struct {
	Value      float64
	Percentile int
	Samples    int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 20 {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	q := 100 * (n - 10) / n
	rank := int(math.Ceil(float64(q) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return tail{Value: s[rank-1], Percentile: q, Samples: n}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is the process's CPU time and RSS high-water mark.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}

// machine is the shape a result was measured on; a comparison across
// different shapes is not a measurement.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machineShape() machine {
	return machine{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// plan sizes one run: how many devices, requests and records the
// workload needs for its measurement window. Inputs are cached per plan.
type plan struct {
	seconds float64 // measurement window (cli: closed loop; serve: schedule span)
	setups  int     // set-ups whose median is setup_s
	warm    int     // warm-up devices ahead of the timed ones (cli, serve)
	devices int     // timed devices (cli: pool the loop cycles through; serve: scheduled)
	judged  int     // devices behind success_rate and resolution (cli, serve)
	records int     // vol stream records
	rate    float64 // serve arrivals per second
}

// Sizing constants, against the parent's throughput on a 2-core x86
// host: cli's pool has ~1.5× headroom over ~8 devices/s, so a faster
// engine still sees distinct devices; serve offers ~half of the ~6
// requests/s one connection completes; vol's stream is ~the ingest
// throughput times the window.
const (
	cliPoolPerSecond    = 12
	cliJudged           = 128
	serveRate           = 2.5
	serveBatchEvery     = 10 // one request in ten is a batch
	serveBatchDevices   = 4
	serveLatencyLimit   = 1500 * time.Millisecond
	volRecordsPerSecond = 6000
)

func makePlan(workload string, seconds float64, short bool) plan {
	switch workload {
	case "cli-b1000":
		if short {
			return plan{seconds: 0.2, setups: 1, warm: 1, devices: 4, judged: 4}
		}
		n := int(math.Ceil(seconds * cliPoolPerSecond))
		if n < cliJudged {
			n = cliJudged
		}
		return plan{seconds: seconds, setups: 5, warm: 3, devices: n, judged: cliJudged}
	case "serve-b1000":
		p := plan{seconds: seconds, setups: 5, warm: 8, rate: serveRate}
		if short {
			p = plan{seconds: 0.5, setups: 1, warm: 2, rate: 20}
		}
		p.devices = serveDevices(p.serveRequests())
		p.judged = p.devices
		return p
	default:
		if short {
			return plan{seconds: 0, setups: 1, records: 400}
		}
		return plan{seconds: seconds, setups: 25, records: int(seconds * volRecordsPerSecond)}
	}
}

// serveRequests is the request count of a serve plan.
func (p plan) serveRequests() int { return int(math.Round(p.seconds * p.rate)) }

// serveDevices counts the devices behind reqs requests, one in
// serveBatchEvery of which is a serveBatchDevices-device batch.
func serveDevices(reqs int) int {
	return reqs + (reqs/serveBatchEvery)*(serveBatchDevices-1)
}

// key names the plan's generated inputs (and is what the generator child
// is told to produce).
func (p plan) key() string {
	return fmt.Sprintf("w%d-d%d-r%d", p.warm, p.devices, p.records)
}

func parsePlanKey(s string) (plan, error) {
	var p plan
	if _, err := fmt.Sscanf(s, "w%d-d%d-r%d", &p.warm, &p.devices, &p.records); err != nil {
		return plan{}, fmt.Errorf("bad -plan %q: %w", s, err)
	}
	return p, nil
}
