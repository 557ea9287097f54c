package tester

import (
	"strings"
	"testing"

	"multidiag/internal/bitset"
)

// FuzzReadDatalog holds the datalog parser, which reads untrusted tester
// text on every entry point, to two properties: it never panics, and
// whatever it accepts survives a WriteDatalog round trip unchanged.
func FuzzReadDatalog(f *testing.F) {
	d := &Datalog{CircuitName: "c17", NumPatterns: 32, NumPOs: 2, Fails: map[int]bitset.Set{}}
	for p, pos := range map[int][]int{3: {0}, 17: {0, 1}} {
		d.Fails[p] = bitset.New(2)
		for _, po := range pos {
			d.Fails[p].Add(po)
		}
	}
	var sb strings.Builder
	if err := WriteDatalog(&sb, d); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	d.Truncated, d.TruncatedAfter = true, 20
	sb.Reset()
	if err := WriteDatalog(&sb, d); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	for _, s := range []string{
		"patterns 4\npos 9223372036854775807\nfail 0 0\n",
		"patterns 4\npos 2\nfail 0 0\nfail 0 1\n",
		"patterns -1\npos 2\n",
		"patterns 4\npos 2\nfail 3 0\npatterns 2\n",
		"patterns 4\npos 2\nfail 3 1\npos 1\n",
		"# datalog for\n# x\npatterns 1\npos 1\n",
		"patterns 4\npos 2\ntruncated -7\n",
		"truncated 1000000000\npatterns 4\npos 2\n",
		"patterns 4\npos 2\ntruncated 1\ntruncated 2\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, err := ReadDatalog(strings.NewReader(in))
		if err != nil {
			return
		}
		var first strings.Builder
		if err := WriteDatalog(&first, d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadDatalog(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("written datalog does not parse: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := WriteDatalog(&second, back); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the datalog:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
