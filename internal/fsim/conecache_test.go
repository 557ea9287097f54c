package fsim

import (
	"math/rand"
	"sync"
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/fault"
	"multidiag/internal/obs"
)

// TestConeCacheCorrectness cross-checks every cached result against a
// fresh (uncached) evaluation: a cold pass fills the cache, a warm pass on
// a second simulator of the same workload must reproduce bit-identical
// syndromes without a miss, and the cache's hit and miss counters must
// account for exactly the probes the simulators made.
func TestConeCacheCorrectness(t *testing.T) {
	fs, faults := batchFixture(t)
	fresh := make([]*Syndrome, len(faults))
	for i, f := range faults {
		fresh[i] = fs.SimulateStuckAt(f)
	}

	reg := obs.NewRegistry()
	cc := NewConeCache(0)
	cc.Observe(reg)
	hits, misses := reg.Counter("fsim.cone_cache_hits"), reg.Counter("fsim.cone_cache_misses")
	cold := fs.Fork()
	if !cold.AttachCache(cc) {
		t.Fatal("attach refused for the binding workload")
	}
	for i, f := range faults {
		if got := cold.SimulateStuckAt(f); !got.Equal(fresh[i]) {
			t.Fatalf("cold cached syndrome differs for %s", f.String())
		}
	}
	coldMisses := misses.Value()
	if coldMisses == 0 {
		t.Fatal("cold pass recorded no misses")
	}

	warm := fs.Fork()
	warm.AttachCache(cc)
	for i, f := range faults {
		if got := warm.SimulateStuckAt(f); !got.Equal(fresh[i]) {
			t.Fatalf("warm cached syndrome differs for %s", f.String())
		}
	}
	if m := misses.Value() - coldMisses; m != 0 {
		t.Fatalf("warm pass missed the cache %d times", m)
	}
	probes := cold.probeHits + cold.probeMisses + warm.probeHits + warm.probeMisses
	if got := hits.Value() + misses.Value(); got != probes {
		t.Fatalf("hits + misses = %d, want the simulators' %d probes", got, probes)
	}
}

// TestConeCacheEviction runs the same sweep with a cache far smaller than
// the working set: results must stay exact while evictions churn.
func TestConeCacheEviction(t *testing.T) {
	fs, faults := batchFixture(t)
	reg := obs.NewRegistry()
	cc := NewConeCache(64) // far below len(faults) × words entries
	cc.Observe(reg)
	sim := fs.Fork()
	sim.AttachCache(cc)
	for rep := 0; rep < 2; rep++ {
		for _, f := range faults {
			if got, want := sim.SimulateStuckAt(f), fs.SimulateStuckAt(f); !got.Equal(want) {
				t.Fatalf("rep %d: evicting cache corrupted syndrome for %s", rep, f.String())
			}
		}
	}
	if reg.Counter("fsim.cone_cache_evictions").Value() == 0 {
		t.Fatal("undersized cache recorded no evictions")
	}
	if got := cc.Len(); got > 64+coneShards {
		t.Fatalf("cache holds %d entries, capacity 64", got)
	}
}

// TestConeCacheRejectsMismatchedWorkload binds the cache to one workload
// and attaches a simulator for a different circuit: the attach must be
// refused and the second simulator must run (correctly) uncached.
func TestConeCacheRejectsMismatchedWorkload(t *testing.T) {
	fs, _ := batchFixture(t)
	cc := NewConeCache(0)
	if !fs.AttachCache(cc) {
		t.Fatal("first attach refused")
	}

	c2 := circuits.C17()
	pats := exhaustivePatterns(len(c2.PIs))
	other, err := NewFaultSim(c2, pats)
	if err != nil {
		t.Fatal(err)
	}
	if other.AttachCache(cc) {
		t.Fatal("attach accepted a mismatched workload")
	}
	f := fault.StuckAt{Net: c2.NetByName("G16"), Value1: true}
	if got, want := other.SimulateStuckAt(f), refSyndrome(t, c2, pats, f); !got.Equal(want) {
		t.Fatal("uncached fallback syndrome is wrong")
	}
	if !fs.AttachCache(nil) || fs.cache != nil {
		t.Fatal("nil attach did not detach")
	}
}

// TestConeCacheConcurrentStress hammers one shared cache from many forked
// simulators over overlapping fault lists — the -race stress test of the
// sharded cache. Every concurrent result must equal the sequential one.
func TestConeCacheConcurrentStress(t *testing.T) {
	fs, faults := batchFixture(t)
	want := make([]*Syndrome, len(faults))
	for i, f := range faults {
		want[i] = fs.SimulateStuckAt(f)
	}
	reg := obs.NewRegistry()
	cc := NewConeCache(512) // small enough to force concurrent evictions
	cc.Observe(reg)
	fs.Observe(reg)
	base := fs.Fork()
	base.AttachCache(cc)

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		sim := base.Fork()
		r := rand.New(rand.NewSource(int64(g)))
		wg.Add(1)
		go func(sim *FaultSim, r *rand.Rand) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, i := range r.Perm(len(faults)) {
					if got := sim.SimulateStuckAt(faults[i]); !got.Equal(want[i]) {
						errc <- &mismatchError{f: faults[i]}
						return
					}
				}
			}
		}(sim, r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if reg.Counter("fsim.cone_cache_hits").Value() == 0 {
		t.Fatal("concurrent sweep never hit the cache")
	}
}

type mismatchError struct{ f fault.StuckAt }

func (e *mismatchError) Error() string {
	return "concurrent cached syndrome differs for " + e.f.String()
}
