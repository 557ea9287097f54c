package fsim

import (
	"multidiag/internal/obs"
)

// Shared is the simulation context shared by every diagnosis of one
// (circuit, test set) workload: a warm cone cache and the fault-parallel
// worker share each diagnosis may claim. The experiment campaigns thread
// one Shared through all of a workload's devices; the diagnosis service
// keeps one per registered workload for the lifetime of the process.
type Shared struct {
	// Cache is the workload's flip store (per (net, pattern word)), read
	// by extraction and scoring across candidates and across diagnoses.
	Cache *ConeCache
	// Workers is the per-diagnosis fault-parallel pool size (the fault
	// share left over once `outer` concurrent diagnoses split the budget).
	Workers int
}

// NewShared builds a workload's shared simulation context: one cone cache
// — observed into reg — and the fault-worker share left over once `outer`
// concurrent diagnoses claim their slice of the total budget. budget ≤ 0
// selects GOMAXPROCS; outer < 1 is treated as 1.
func NewShared(reg *obs.Registry, budget, outer int) Shared {
	cc := NewConeCache(0)
	cc.Observe(reg)
	if outer < 1 {
		outer = 1
	}
	fw := Workers(budget) / outer
	if fw < 1 {
		fw = 1
	}
	return Shared{Cache: cc, Workers: fw}
}
