package volume

import (
	"sync"
	"testing"

	"multidiag/internal/bitset"
	"multidiag/internal/netlist"
	"multidiag/internal/tester"
)

// fixedLog builds the reference syndrome used by the golden tests:
// pattern 1 fails PO 0, pattern 3 fails POs 0 and 1, over an 8-pattern
// 2-PO test set.
func fixedLog() *tester.Datalog {
	log := &tester.Datalog{
		CircuitName: "c17",
		NumPatterns: 8,
		NumPOs:      2,
		Fails:       map[int]bitset.Set{},
	}
	s1 := bitset.New(2)
	s1.Add(0)
	s3 := bitset.New(2)
	s3.Add(0)
	s3.Add(1)
	log.Fails[1] = s1
	log.Fails[3] = s3
	return log
}

// TestFingerprintGolden pins the canonical encoding: these hex strings
// may only change together with a fingerprintDomain bump, because a
// changed encoding under the same domain would let caches populated by
// an old binary serve reports for new-binary fingerprints.
func TestFingerprintGolden(t *testing.T) {
	log := fixedLog()
	const want = "da30dc1e71fa67939625aa0c618e159b17fa40427712cb3f371c24a5c0b3d766"
	if got := FingerprintDatalog("c17", log).String(); got != want {
		t.Fatalf("fingerprint = %s, want %s (encoding changed without a domain bump?)", got, want)
	}
	log.Truncated = true
	log.TruncatedAfter = 3
	const wantTrunc = "5696932025954c488740b5b2f6dcb4f9ed053125a417c3d1d5acbadfbb3c85b4"
	if got := FingerprintDatalog("c17", log).String(); got != wantTrunc {
		t.Fatalf("truncated fingerprint = %s, want %s", got, wantTrunc)
	}
}

// TestFingerprintEncodingInsensitive pins that wire format never leaks
// into the hash: a structured-fails record and a text-datalog record of
// one syndrome — in any field order — build the same fingerprint.
func TestFingerprintEncodingInsensitive(t *testing.T) {
	c := &netlist.Circuit{Name: "c17"}
	c.POs = []netlist.NetID{0, 1} // only len(POs) matters to BuildDatalog bounds
	structured := &Record{Fails: []PatternFails{
		{Pattern: 3, POs: []int{1, 0}},
		{Pattern: 1, POs: []int{0}},
		{Pattern: 5, POs: nil}, // passing pattern, normalized away
	}}
	logA, err := structured.BuildDatalog(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := FingerprintDatalog("c17", fixedLog())
	if got := FingerprintDatalog("c17", logA); got != want {
		t.Fatalf("structured record fingerprints %s, direct datalog %s", got, want)
	}
}

// TestFingerprintRepeatedPatternLines: a pattern listed twice unions its
// failing POs in both wire formats, so the text and structured encodings
// of one syndrome still fingerprint alike.
func TestFingerprintRepeatedPatternLines(t *testing.T) {
	c := &netlist.Circuit{Name: "c17"}
	c.POs = []netlist.NetID{0, 1}
	text := &Record{Datalog: "patterns 8\npos 2\nfail 1 0\nfail 3 0\nfail 3 1\n"}
	structured := &Record{Fails: []PatternFails{{Pattern: 1, POs: []int{0}}, {Pattern: 3, POs: []int{0}}, {Pattern: 3, POs: []int{1}}}}
	want := FingerprintDatalog("c17", fixedLog())
	for name, r := range map[string]*Record{"text": text, "structured": structured} {
		log, err := r.BuildDatalog(c, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := FingerprintDatalog("c17", log); got != want {
			t.Errorf("%s record fingerprints %s, want %s", name, got, want)
		}
	}
}

// TestFingerprintSensitivity pins that every syndrome-relevant dimension
// feeds the hash: workload name, test-set size, PO count, the fail set
// and the truncation point all separate fingerprints.
func TestFingerprintSensitivity(t *testing.T) {
	base := FingerprintDatalog("c17", fixedLog())
	seen := map[Fingerprint]string{base: "base"}
	note := func(name string, f Fingerprint) {
		if prev, dup := seen[f]; dup {
			t.Fatalf("%s collides with %s: %s", name, prev, f)
		}
		seen[f] = name
	}
	note("workload", FingerprintDatalog("c18", fixedLog()))
	l := fixedLog()
	l.NumPatterns = 9
	note("numPatterns", FingerprintDatalog("c17", l))
	l = fixedLog()
	l.NumPOs = 3
	note("numPOs", FingerprintDatalog("c17", l))
	l = fixedLog()
	l.Fails[1].Add(1)
	note("failSet", FingerprintDatalog("c17", l))
	l = fixedLog()
	l.Truncated = true
	l.TruncatedAfter = 2
	note("truncated", FingerprintDatalog("c17", l))
	l = fixedLog()
	l.Truncated = true
	l.TruncatedAfter = 5
	note("truncatedAfter", FingerprintDatalog("c17", l))
}

// TestFingerprintConcurrentStability pins run-to-run and goroutine-to-
// goroutine stability: hashing one syndrome from many goroutines always
// lands on the serial value (map iteration order must not leak in).
func TestFingerprintConcurrentStability(t *testing.T) {
	want := FingerprintDatalog("c17", fixedLog())
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := FingerprintDatalog("c17", fixedLog()); got != want {
				errs <- got.String()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent fingerprint %s != serial %s", got, want)
	}
}
