// Package tester models the production-test artifacts the diagnosis flow
// consumes: pattern application to a device (here: a defect-injected circuit
// model), the resulting datalog of failing patterns with their failing
// primary outputs, and a text serialization of both patterns and datalogs.
//
// A Datalog is deliberately identical in information content to a
// fsim.Syndrome — diagnosis sees only what a tester records: which patterns
// failed and at which outputs. The package also models tester fail-memory
// truncation, a real-world datalog artifact the robustness experiments use.
package tester

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"multidiag/internal/bitset"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
)

// Datalog records the observed failing behaviour of one device under one
// test set.
type Datalog struct {
	CircuitName string
	NumPatterns int
	NumPOs      int
	// Fails maps failing pattern index → failing PO set.
	Fails map[int]bitset.Set
	// Truncated is true when fail collection stopped early (fail-memory
	// full); patterns after the truncation point have unknown status.
	Truncated bool
	// TruncatedAfter is the last pattern index with trustworthy status when
	// Truncated is set.
	TruncatedAfter int
}

// FromSyndrome converts a simulated syndrome into a datalog.
func FromSyndrome(name string, s *fsim.Syndrome) *Datalog {
	d := &Datalog{
		CircuitName: name,
		NumPatterns: s.NumPatterns,
		NumPOs:      s.NumPOs,
		Fails:       make(map[int]bitset.Set),
	}
	for p, f := range s.Fails {
		if f != nil && !f.Empty() {
			d.Fails[p] = f.Clone()
		}
	}
	return d
}

// Syndrome converts back to the simulation-side representation.
func (d *Datalog) Syndrome() *fsim.Syndrome {
	s := fsim.NewSyndrome(d.NumPatterns, d.NumPOs)
	for p, f := range d.Fails {
		s.Fails[p] = f.Clone()
	}
	return s
}

// FailingPatterns returns the failing pattern indices in ascending order.
func (d *Datalog) FailingPatterns() []int {
	out := make([]int, 0, len(d.Fails))
	for p := range d.Fails {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// NumFailBits counts (pattern, PO) fail pairs.
func (d *Datalog) NumFailBits() int {
	n := 0
	for _, f := range d.Fails {
		n += f.Count()
	}
	return n
}

// Truncate models a tester whose fail memory holds at most maxFails
// (pattern, PO) pairs: observation stops mid-test once the budget is
// exhausted. It returns a new datalog.
func (d *Datalog) Truncate(maxFails int) *Datalog {
	out := &Datalog{
		CircuitName: d.CircuitName,
		NumPatterns: d.NumPatterns,
		NumPOs:      d.NumPOs,
		Fails:       make(map[int]bitset.Set),
	}
	budget := maxFails
	for _, p := range d.FailingPatterns() {
		f := d.Fails[p]
		n := f.Count()
		if n <= budget {
			out.Fails[p] = f.Clone()
			budget -= n
			continue
		}
		// Partial pattern capture then stop.
		if budget > 0 {
			part := bitset.New(d.NumPOs)
			for _, m := range f.Members() {
				if budget == 0 {
					break
				}
				part.Add(m)
				budget--
			}
			out.Fails[p] = part
		}
		out.Truncated = true
		out.TruncatedAfter = p
		return out
	}
	return out
}

// ApplyTest simulates the test application: the given circuit (typically a
// defect-injected copy) is simulated against the reference circuit's
// fault-free responses and the mismatches are recorded. Both circuits must
// have identical PI/PO interfaces.
func ApplyTest(reference, device *netlist.Circuit, pats []sim.Pattern) (*Datalog, error) {
	if len(reference.PIs) != len(device.PIs) || len(reference.POs) != len(device.POs) {
		return nil, fmt.Errorf("tester: interface mismatch: %d/%d PIs, %d/%d POs",
			len(reference.PIs), len(device.PIs), len(reference.POs), len(device.POs))
	}
	refSim := sim.New(reference)
	devSim := sim.New(device)
	syn := fsim.NewSyndrome(len(pats), len(reference.POs))
	for base := 0; base < len(pats); base += 64 {
		end := base + 64
		if end > len(pats) {
			end = len(pats)
		}
		chunk := pats[base:end]
		refPI, _, err := refSim.PackPatterns(chunk)
		if err != nil {
			return nil, err
		}
		devPI, _, err := devSim.PackPatterns(chunk)
		if err != nil {
			return nil, err
		}
		if err := refSim.Run(refPI); err != nil {
			return nil, err
		}
		if err := devSim.Run(devPI); err != nil {
			return nil, err
		}
		for i := range reference.POs {
			diff := refSim.Value(reference.POs[i]).DiffKnown(devSim.Value(device.POs[i]))
			for slot := uint(0); slot < 64; slot++ {
				p := base + int(slot)
				if p >= len(pats) {
					break
				}
				if diff>>slot&1 == 1 {
					syn.AddFail(p, i)
				}
			}
		}
	}
	return FromSyndrome(reference.Name, syn), nil
}

// WriteDatalog serializes the datalog in a line-oriented text format:
//
//	# datalog for <circuit>
//	patterns <N>
//	pos <M>
//	fail <patternIdx> <poIdx> <poIdx> ...
//	truncated <afterPattern>     (optional)
func WriteDatalog(w io.Writer, d *Datalog) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# datalog for %s\n", d.CircuitName)
	fmt.Fprintf(bw, "patterns %d\n", d.NumPatterns)
	fmt.Fprintf(bw, "pos %d\n", d.NumPOs)
	for _, p := range d.FailingPatterns() {
		fmt.Fprintf(bw, "fail %d", p)
		for _, po := range d.Fails[p].Members() {
			fmt.Fprintf(bw, " %d", po)
		}
		fmt.Fprintln(bw)
	}
	if d.Truncated {
		fmt.Fprintf(bw, "truncated %d\n", d.TruncatedAfter)
	}
	return bw.Flush()
}

// maxCount bounds the patterns and pos declarations. The parser allocates
// one pos-wide fail set per failing pattern, so an absurd declaration must
// fail here rather than panic in make or exhaust memory.
const maxCount = 1 << 20

// ReadDatalog parses the WriteDatalog format. The patterns and pos
// declarations are required, appear once each and must lie in [1, 2^20];
// repeated fail lines for one pattern union their POs.
func ReadDatalog(r io.Reader) (*Datalog, error) { return ReadDatalogFor(r, 0, 0) }

// ReadDatalogFor is ReadDatalog for a known workload: a patterns or pos
// declaration that disagrees with numPatterns or numPOs fails at its line,
// before any fail set is allocated, so an untrusted datalog costs at most
// the workload's width per failing pattern. A zero count is not checked.
func ReadDatalogFor(r io.Reader, numPatterns, numPOs int) (*Datalog, error) {
	d := &Datalog{Fails: make(map[int]bitset.Set)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if d.CircuitName == "" {
				d.CircuitName = strings.TrimSpace(strings.TrimPrefix(text, "# datalog for"))
			}
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "patterns", "pos", "truncated":
			if len(fields) != 2 {
				return nil, fmt.Errorf("tester: line %d: %q needs one argument", line, fields[0])
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("tester: line %d: %v", line, err)
			}
			if fields[0] == "truncated" {
				d.Truncated = true
				d.TruncatedAfter = n
				continue
			}
			count, want := &d.NumPatterns, numPatterns
			if fields[0] == "pos" {
				count, want = &d.NumPOs, numPOs
			}
			switch {
			case *count != 0:
				return nil, fmt.Errorf("tester: line %d: %s declared twice", line, fields[0])
			case n < 1 || n > maxCount:
				return nil, fmt.Errorf("tester: line %d: %s %d out of range [1,%d]", line, fields[0], n, maxCount)
			case want != 0 && n != want:
				return nil, fmt.Errorf("tester: line %d: %s %d, workload has %d", line, fields[0], n, want)
			}
			*count = n
		case "fail":
			if len(fields) < 3 {
				return nil, fmt.Errorf("tester: line %d: fail needs pattern and ≥1 PO", line)
			}
			if d.NumPOs == 0 {
				return nil, fmt.Errorf("tester: line %d: fail before pos declaration", line)
			}
			p, err := strconv.Atoi(fields[1])
			if err != nil || p < 0 || p >= d.NumPatterns {
				return nil, fmt.Errorf("tester: line %d: bad pattern index %q", line, fields[1])
			}
			set := d.Fails[p]
			if set == nil {
				set = bitset.New(d.NumPOs)
				d.Fails[p] = set
			}
			for _, f := range fields[2:] {
				po, err := strconv.Atoi(f)
				if err != nil || po < 0 || po >= d.NumPOs {
					return nil, fmt.Errorf("tester: line %d: bad PO index %q", line, f)
				}
				set.Add(po)
			}
		default:
			return nil, fmt.Errorf("tester: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d.NumPatterns == 0 {
		return nil, fmt.Errorf("tester: datalog missing patterns declaration")
	}
	if d.NumPOs == 0 {
		return nil, fmt.Errorf("tester: datalog missing pos declaration")
	}
	return d, nil
}

// WritePatterns serializes a pattern set, one 0/1/X string per line.
func WritePatterns(w io.Writer, pats []sim.Pattern) error {
	bw := bufio.NewWriter(w)
	for _, p := range pats {
		fmt.Fprintln(bw, p.String())
	}
	return bw.Flush()
}

// ReadPatterns parses the WritePatterns format; all patterns must share one
// width.
func ReadPatterns(r io.Reader) ([]sim.Pattern, error) {
	var out []sim.Pattern
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		p, err := sim.ParsePattern(text)
		if err != nil {
			return nil, fmt.Errorf("tester: line %d: %v", line, err)
		}
		if len(out) > 0 && len(p) != len(out[0]) {
			return nil, fmt.Errorf("tester: line %d: width %d, want %d", line, len(p), len(out[0]))
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
