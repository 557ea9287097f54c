package fsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"multidiag/internal/bitset"
	"multidiag/internal/circuits"
	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
)

func benchCircuit(b *testing.B, gates int) *netlist.Circuit {
	b.Helper()
	c, err := circuits.Generate(circuits.GenConfig{Seed: 5, NumPIs: 32, NumGates: gates, NumPOs: 24})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkPPSFP measures cone-limited single-fault simulation over a
// 256-pattern test set (one fault per op).
func BenchmarkPPSFP(b *testing.B) {
	c := benchCircuit(b, 2000)
	r := rand.New(rand.NewSource(1))
	pats := randomPatterns(r, len(c.PIs), 256)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Collapse(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.SimulateStuckAt(universe[i%len(universe)])
	}
}

// BenchmarkCriticalWord measures exact critical path tracing of one
// pattern word with every output failing on all 64 patterns (one word per
// op, stems propagated on the calling simulator).
func BenchmarkCriticalWord(b *testing.B) {
	c := benchCircuit(b, 2000)
	r := rand.New(rand.NewSource(2))
	fs, err := NewFaultSim(c, randomPatterns(r, len(c.PIs), logic.W))
	if err != nil {
		b.Fatal(err)
	}
	fails := make([]bitset.Set, logic.W)
	for p := range fails {
		fails[p] = bitset.New(len(c.POs))
		for i := range c.POs {
			fails[p].Add(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.CriticalWord(context.Background(), 0, fails, false, 1, nil)
	}
}

// BenchmarkDictionaryBuild measures the cause-effect precompute the
// effect-cause flow avoids (small circuit: the cost is the point).
func BenchmarkDictionaryBuild(b *testing.B) {
	c := benchCircuit(b, 300)
	r := rand.New(rand.NewSource(3))
	pats := randomPatterns(r, len(c.PIs), 128)
	universe := fault.Collapse(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDictionary(c, pats, universe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStuckAtBatch measures the fault-parallel sweep of a collapsed
// universe at several worker counts (j=1 is the sequential reference; the
// speedup curve is the batch layer's scaling proof).
func BenchmarkStuckAtBatch(b *testing.B) {
	c := benchCircuit(b, 2000)
	r := rand.New(rand.NewSource(1))
	pats := randomPatterns(r, len(c.PIs), 256)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Collapse(c)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs.SimulateStuckAtBatch(universe, workers)
			}
		})
	}
}

// BenchmarkStuckAtBatchCached is the same sweep with a warm cone cache:
// after the first iteration every (fault, word) replays from the cache —
// the campaign steady state.
func BenchmarkStuckAtBatchCached(b *testing.B) {
	c := benchCircuit(b, 2000)
	r := rand.New(rand.NewSource(1))
	pats := randomPatterns(r, len(c.PIs), 256)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		b.Fatal(err)
	}
	universe := fault.Collapse(c)
	cc := NewConeCache(1 << 20)
	fs.AttachCache(cc)
	fs.SimulateStuckAtBatch(universe, 4) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.SimulateStuckAtBatch(universe, 4)
	}
}
