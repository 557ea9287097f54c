package obs

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags bundles the observability command-line flags: JSONL trace
// output, CPU/heap profiles, the pprof/expvar/metrics debug listener and
// the runtime/metrics sampler. The CLIs register them through prof.Flags,
// their one instrumentation flag set.
type Flags struct {
	TraceOut   string
	CPUProfile string
	MemProfile string
	// MutexProfile / BlockProfile enable the runtime contention profilers
	// for the whole run and write the named profile at exit (see
	// StartContentionProfiles for the rate semantics).
	MutexProfile  string
	MutexFraction int
	BlockProfile  string
	BlockRate     int
	DebugAddr     string
	// SampleRuntime enables the periodic runtime/metrics sampler at the
	// given interval (0 disables). The sampled gauges/histograms land in
	// the global trace registry and therefore in /metrics, run-record
	// snapshots and the -v footer.
	SampleRuntime time.Duration
}

// Register installs the flags on fs (use flag.CommandLine for main).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TraceOut, "trace-out", "", "write JSONL run/span trace records to `file` (.gz compresses)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&f.MutexProfile, "mutexprofile", "", "record mutex contention for the whole run and write the profile to `file` at exit")
	fs.IntVar(&f.MutexFraction, "mutexprofilefraction", 5, "sample 1/`n` of mutex contention events (with -mutexprofile)")
	fs.StringVar(&f.BlockProfile, "blockprofile", "", "record goroutine blocking for the whole run and write the profile to `file` at exit")
	fs.IntVar(&f.BlockRate, "blockprofilerate", 1, "record blocking events lasting ≥ `ns` nanoseconds (with -blockprofile)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof, expvar and /metrics on `addr` (e.g. localhost:6060)")
	fs.DurationVar(&f.SampleRuntime, "sample-runtime", 0, "sample runtime/metrics (heap, GC pauses, goroutines, sched latency) every `interval` into the registry (0 = off)")
}

// Setup activates whatever the flags request: it creates a trace labeled
// label, installs it as the process global, opens the trace file, starts
// profiles and the debug listener. The returned finish func must run
// before exit — it emits the final run record, flushes profiles, and
// returns the first error from any sink (an unwritable -trace-out file
// surfaces here rather than dropping events silently). Setup itself fails
// fast when a file cannot be created.
func (f *Flags) Setup(label string) (*Trace, func() error, error) {
	tr := New(label)
	SetGlobal(tr)

	var em *Emitter
	if f.TraceOut != "" {
		out, err := CreateSink(f.TraceOut)
		if err != nil {
			return nil, nil, fmt.Errorf("trace-out: %w", err)
		}
		em = NewEmitter(out)
		tr.SetEmitter(em)
	}
	stopProfiles, err := StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		em.Close()
		return nil, nil, err
	}
	stopContention, err := StartContentionProfiles(f.MutexProfile, f.MutexFraction, f.BlockProfile, f.BlockRate)
	if err != nil {
		stopProfiles()
		em.Close()
		return nil, nil, err
	}
	if f.DebugAddr != "" {
		addr, err := ServeDebug(f.DebugAddr, tr.Registry())
		if err != nil {
			stopContention()
			stopProfiles()
			em.Close()
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/pprof/\n", label, addr)
	}
	stopSampler := func() {}
	if f.SampleRuntime > 0 {
		stopSampler = StartRuntimeSampler(tr.Registry(), f.SampleRuntime)
	}

	finish := func() error {
		stopSampler() // final sample lands before the run record snapshot
		firstErr := tr.EmitRun(nil)
		if err := em.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := stopProfiles(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := stopContention(); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	return tr, finish, nil
}
