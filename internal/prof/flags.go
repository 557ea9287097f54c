package prof

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"multidiag/internal/explain"
	"multidiag/internal/obs"
)

// Flags is the one instrumentation flag set of the CLIs: the obs flags
// (JSONL trace, pprof profiles, debug listener, runtime sampler), the
// continuous-profiling flags below and, on the CLIs that run the flight
// recorder, -explain-out. Any one profiling flag being set enables the
// collector; with all at their zero value the engine keeps its free
// disabled path.
type Flags struct {
	obs.Flags
	// Enable turns the collector on with defaults even when no sink or
	// sampler is requested (phase attribution + /debug/prof only).
	Enable bool
	// Out is the JSONL(.gz) snapshot sink cmd/mdprof analyzes.
	Out string
	// Sample starts the periodic background sampler (0: snapshots only at
	// pins and exit).
	Sample time.Duration
	// Ring overrides the per-ring snapshot capacity (0: default 64).
	Ring int
	// ExplainOut is the flight-recorder JSONL(.gz) sink (RegisterExplain).
	ExplainOut string
}

// Register installs the obs and profiling flags on fs (use
// flag.CommandLine for main).
func (f *Flags) Register(fs *flag.FlagSet) {
	f.Flags.Register(fs)
	fs.BoolVar(&f.Enable, "prof", false, "enable phase-attributed profiling (runtime/metrics deltas, pprof labels, /debug/prof snapshots)")
	fs.StringVar(&f.Out, "prof-out", "", "write profiling snapshots as JSONL to `file` (.gz compresses; implies -prof; analyze with mdprof)")
	fs.DurationVar(&f.Sample, "prof-sample", 0, "take a profiling snapshot every `interval` (implies -prof; 0 = only at pins and exit)")
	fs.IntVar(&f.Ring, "prof-ring", 0, "snapshot ring capacity per ring (0 = default 64)")
}

// RegisterExplain installs -explain-out on fs. Only the CLIs that run the
// flight recorder (mddiag, mdexp) register it; elsewhere it is an
// unknown flag rather than one that silently writes nothing.
func (f *Flags) RegisterExplain(fs *flag.FlagSet) {
	fs.StringVar(&f.ExplainOut, "explain-out", "", "write JSONL candidate flight-recorder events to `file` (.gz compresses)")
}

// Setup activates what the flags request: the obs trace labeled label
// (installed as the process global) with its sinks, profiles and debug
// listener; the prof collector, counting into the trace's registry; and,
// with -explain-out, a flight recorder labeled label streaming there. The
// recorder is nil otherwise: retaining a whole campaign's events in
// memory with nothing reading them helps nobody. Setup fails fast on a
// file it cannot create, after undoing whatever it already started.
//
// The one returned finish must run before exit on every path, or a .gz
// sink is left without its trailer. It closes the recorder's sink, then
// stops the collector (so its final summary snapshot lands while the
// trace is still up), then finishes the trace (run record, profiles), and
// returns the first error.
func (f *Flags) Setup(label string) (*obs.Trace, *explain.Recorder, func() error, error) {
	tr, finishObs, err := f.Flags.Setup(label)
	if err != nil {
		return nil, nil, nil, err
	}
	finishProf, err := f.startCollector(tr.Registry())
	if err != nil {
		finishObs()
		return nil, nil, nil, err
	}
	var rec *explain.Recorder
	finishExplain := func() error { return nil }
	if f.ExplainOut != "" {
		if rec, finishExplain, err = explain.Open(f.ExplainOut, label); err != nil {
			finishProf()
			finishObs()
			return nil, nil, nil, err
		}
	}
	finish := func() error {
		err := finishExplain()
		if e := finishProf(); err == nil {
			err = e
		}
		if e := finishObs(); err == nil {
			err = e
		}
		return err
	}
	return tr, rec, finish, nil
}

// registerDebug puts /debug/prof on the default mux exactly once, so it
// rides the same listener obs's -debug-addr starts (which serves
// http.DefaultServeMux). Registering eagerly is harmless: the handler
// 404s while no collector is installed.
var registerDebug sync.Once

// startCollector builds, installs and (via the returned stop) tears down
// the collector the profiling flags describe. reg may be nil (no registry
// counters). With no profiling flag set it returns a no-op stop.
func (f *Flags) startCollector(reg *obs.Registry) (func() error, error) {
	if !f.Enable && f.Out == "" && f.Sample <= 0 {
		return func() error { return nil }, nil
	}
	var sink io.WriteCloser
	if f.Out != "" {
		var err error
		sink, err = obs.CreateSink(f.Out)
		if err != nil {
			return nil, fmt.Errorf("prof-out: %w", err)
		}
	}
	cfg := Config{Registry: reg, RingSize: f.Ring, SampleInterval: f.Sample}
	if sink != nil {
		cfg.Sink = sink
	}
	c := New(cfg)
	Enable(c)
	registerDebug.Do(func() { http.Handle("/debug/prof", Handler()) })
	stop := func() error {
		Disable()
		firstErr := c.Stop()
		if sink != nil {
			if err := sink.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return stop, nil
}
