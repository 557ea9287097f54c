package gate

import (
	"errors"
	"fmt"
	"io"

	"multidiag/internal/prof"
)

// ProfFailPct is the per-call allocation growth percentage that fails
// the prof gate; growth beyond 25% warns.
const ProfFailPct = 50

// Per-phase allocation limits. A dimension gates only when its absolute
// per-call growth also clears its noise floor: tiny phases flap by a few
// KiB and a handful of objects run to run (GC timing, per-P stat flush
// lag), and a 2× jump from 2KiB is noise where a 2× jump from 2MiB is a
// bug.
var (
	profBytes = Limit{Warn: 25, Fail: ProfFailPct, Floor: 16 << 10}
	profObjs  = Limit{Warn: 25, Fail: ProfFailPct, Floor: 256}
)

// LoadProfBaseline reads a committed per-phase baseline
// (PROF_baseline.json; "-" reads stdin).
func LoadProfBaseline(path string) (*prof.Baseline, error) {
	return load(path, func(b *prof.Baseline) error {
		if b.Schema != prof.BaselineSchema {
			return fmt.Errorf("schema %q, want %q", b.Schema, prof.BaselineSchema)
		}
		if len(b.Phases) == 0 {
			return errors.New("no phases")
		}
		return nil
	})
}

// Prof prints the per-phase bytes/call table and gates each phase on the
// worse of its bytes/call and objects/call growth.
func Prof(w io.Writer, base, cur *prof.Baseline) []Finding {
	var fs []Finding
	fmt.Fprintf(w, "%-16s %16s %16s %9s\n", "phase", "base B/call", "cur B/call", "delta")
	walk(base.Phases, cur.Phases, func(name string, b, c prof.PhaseBaseline, inBase, inCur bool) {
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-16s %16.0f %16s %9s\n", name, b.AllocBytesPerCall, "—", "gone")
		case !inBase:
			fmt.Fprintf(w, "%-16s %16s %16.0f %9s\n", name, "—", c.AllocBytesPerCall, "new")
		default:
			level, growth, limit := profBytes.Check(b.AllocBytesPerCall, c.AllocBytesPerCall)
			fmt.Fprintf(w, "%-16s %16.0f %16.0f %+8.1f%%\n", name, b.AllocBytesPerCall, c.AllocBytesPerCall, growth)
			unit, bv, cv := "B/call", b.AllocBytesPerCall, c.AllocBytesPerCall
			if l, g, lim := profObjs.Check(b.AllocObjsPerCall, c.AllocObjsPerCall); worse(l, g, level, growth) {
				level, growth, limit = l, g, lim
				unit, bv, cv = "objs/call", b.AllocObjsPerCall, c.AllocObjsPerCall
			}
			if level != "" {
				fs = append(fs, regressed(level, name, "phase "+name+" allocation", unit, growth, limit, bv, cv))
			}
		}
	})
	return fs
}

// worse reports whether level a at growth ga outranks level b at gb.
func worse(a string, ga float64, b string, gb float64) bool {
	rank := func(level string) int {
		switch level {
		case Error:
			return 2
		case Warning:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b) || rank(a) == rank(b) && ga > gb
}
