package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"

	"multidiag/internal/cio"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/metrics"
	"multidiag/internal/netlist"
	"multidiag/internal/serve"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// The report check: every report a pass produces is byte-compared with a
// reference diagnosis of the same datalog — core.Diagnose with Workers 1,
// no cone cache and no shared simulator — after normalizing the fields
// that legitimately differ (timings and join IDs). References are
// computed untimed, nproc at a time, and cached for the invocation.

// topN is the ranked-candidate tail every path renders (mddiag's -top
// default and the serve default).
const topN = 10

// devRef is the reference for one cli/serve device. A device whose
// reference diagnosis fails (err) cannot be checked and counts as failed.
type devRef struct {
	res  *core.Result
	text []byte // mddiag report with the elapsed field stripped
	json []byte // serve report with the serving tail zeroed
	err  error
}

// matches reports whether the reference exists and got equals want.
func (r *devRef) matches(got, want []byte) bool {
	return r.err == nil && bytes.Equal(got, want)
}

type refCache struct {
	mu   sync.Mutex
	c    *netlist.Circuit
	pats []sim.Pattern
	devs map[int]*devRef
}

func newRefCache() *refCache { return &refCache{devs: map[int]*devRef{}} }

// loadInputs reads the generated circuit and patterns the way mddiag does.
func loadInputs(dir string, m *manifest) (*netlist.Circuit, []sim.Pattern, error) {
	c, _, err := cio.LoadCircuit(filepath.Join(dir, m.Circuit), false)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(filepath.Join(dir, m.Patterns))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	pats, err := tester.ReadPatterns(f)
	if err != nil {
		return nil, nil, err
	}
	return c, pats, nil
}

func (rc *refCache) circuit(b *bench) (*netlist.Circuit, []sim.Pattern, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.c == nil {
		c, pats, err := loadInputs(b.dir, b.man)
		if err != nil {
			return nil, nil, err
		}
		rc.c, rc.pats = c, pats
	}
	return rc.c, rc.pats, nil
}

// devices returns the references of the given device indices.
func (rc *refCache) devices(b *bench, idx []int) (map[int]*devRef, error) {
	c, pats, err := rc.circuit(b)
	if err != nil {
		return nil, err
	}
	var todo []int
	rc.mu.Lock()
	seen := map[int]bool{}
	for _, i := range idx {
		if _, ok := rc.devs[i]; !ok && !seen[i] {
			seen[i] = true
			todo = append(todo, i)
		}
	}
	rc.mu.Unlock()
	err = parallel(len(todo), func(k int) error {
		i := todo[k]
		r := deviceRef(c, pats, filepath.Join(b.dir, b.man.Devices[i].Datalog))
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reference for device %d: %v\n", i, r.err)
		}
		rc.mu.Lock()
		rc.devs[i] = r
		rc.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]*devRef, len(idx))
	rc.mu.Lock()
	for _, i := range idx {
		out[i] = rc.devs[i]
	}
	rc.mu.Unlock()
	return out, nil
}

func deviceRef(c *netlist.Circuit, pats []sim.Pattern, path string) *devRef {
	f, err := os.Open(path)
	if err != nil {
		return &devRef{err: err}
	}
	log, err := tester.ReadDatalog(f)
	f.Close()
	if err != nil {
		return &devRef{err: err}
	}
	res, err := core.Diagnose(c, pats, log, core.Config{Workers: 1})
	if err != nil {
		return &devRef{err: err}
	}
	var text bytes.Buffer
	if err := core.WriteReport(&text, c, res, len(log.FailingPatterns()), topN); err != nil {
		return &devRef{err: err}
	}
	js, err := normalizeServe(serve.BuildReport(c.Name, c, log, res, topN))
	return &devRef{res: res, text: stripElapsed(text.Bytes()), json: js, err: err}
}

var elapsedField = regexp.MustCompile(`; elapsed [^\n]*`)

// stripElapsed removes the report's one timing field, as
// scripts/determinism_check.sh does.
func stripElapsed(report []byte) []byte {
	return elapsedField.ReplaceAll(report, nil)
}

// normalizeServe zeroes the serving tail of a served report (timings,
// batch size, join IDs), as the serve golden tests do, and encodes it.
func normalizeServe(r *serve.Report) ([]byte, error) {
	r.ElapsedMS, r.QueueWaitMS, r.BatchSize = 0, 0, 0
	r.RequestID, r.TraceID = "", ""
	return json.Marshal(r)
}

// parallel runs f(0..n-1) on nproc goroutines and returns the first error.
func parallel(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// quality scores reference multiplets against the injected defects:
// success_rate and resolution, deterministic for a seed.
type quality struct{ agg metrics.Aggregate }

// add scores one device; a device without a result localizes nothing.
func (q *quality) add(injected []defect.Defect, res *core.Result) {
	var cands []metrics.Candidate
	if res == nil {
		res = &core.Result{}
	}
	for _, nets := range res.MultipletNets() {
		cands = append(cands, metrics.Candidate{Nets: nets})
	}
	q.agg.Add(metrics.Evaluate(injected, cands))
}

func (q *quality) into(p *passResult) {
	p.metrics["success_rate"] = q.agg.SuccessRate()
	p.metrics["resolution"] = q.agg.MeanResolution()
	p.notes["judged_devices"] = q.agg.Runs
}
