package sim

import (
	"testing"

	"multidiag/internal/logic"
)

// BenchmarkPackedSimulate measures packed-parallel throughput: one Run
// evaluates 64 patterns, so patterns/sec = 64 · ops/sec.
func BenchmarkPackedSimulate(b *testing.B) {
	c := randomCircuit(b, 1, 32, 2000)
	s := New(c)
	piv := make([]logic.PV64, len(c.PIs))
	for i := range piv {
		piv[i] = logic.PVFromBits(uint64(i) * 0x9E3779B97F4A7C15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(piv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalarSimulate measures the scalar three-valued reference
// simulator (one pattern per op).
func BenchmarkScalarSimulate(b *testing.B) {
	c := randomCircuit(b, 1, 32, 2000)
	p := make(Pattern, len(c.PIs))
	for i := range p {
		p[i] = logic.FromBool(i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalScalar(c, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
