package core

import (
	"bytes"
	"fmt"
	"io"

	"multidiag/internal/netlist"
)

// WriteReport renders a diagnosis as the human-readable report mddiag
// prints: the evidence summary, consistency warnings, the multiplet with
// equivalence classes and fault models, and (when top > 0) the
// ranked-candidate tail. It lives next to the engine — rather than in the
// report package, which the flight recorder pulls in — so the CLI and the
// serving layer render from one implementation and cannot drift.
func WriteReport(w io.Writer, c *netlist.Circuit, res *Result, failingPatterns, top int) error {
	var b bytes.Buffer
	p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format, args...) }
	p("evidence: %d failing bits over %d failing patterns\n", len(res.Evidence), failingPatterns)
	p("extracted %d effect-cause candidates; multiplet size %d; elapsed %s\n",
		res.CandidatesExtracted, len(res.Multiplet), res.Elapsed)
	if !res.Consistent {
		p("WARNING: multiplet is X-inconsistent on patterns %v — evidence incomplete\n",
			res.InconsistentPatterns)
	}
	if res.UnexplainedBits > 0 {
		p("WARNING: %d evidence bits unexplained\n", res.UnexplainedBits)
	}
	for i, cd := range res.Multiplet {
		p("#%d %s  covers %d bits, %d mispredictions\n", i+1, cd.Name(c), cd.TFSF, cd.TPSF)
		for _, e := range cd.Equivalent {
			p("    ≡ %s\n", e.Name(c))
		}
		for _, m := range cd.Models {
			switch m.Kind {
			case BridgeModel:
				p("    model: dominant bridge, aggressor %s (%d mispred)\n",
					c.NameOf(m.Aggressor), m.Mispredictions)
			default:
				p("    model: stuck-at/open (%d mispred)\n", m.Mispredictions)
			}
		}
	}
	if top > 0 {
		p("ranked candidates:\n")
		for i, cd := range res.Ranked {
			if i >= top {
				break
			}
			p("  %2d. %-20s TFSF=%d TPSF=%d\n", i+1, cd.Name(c), cd.TFSF, cd.TPSF)
		}
	}
	// One write: a caller keeping the report holds its length, not a
	// buffer grown by doubling.
	_, err := w.Write(b.Bytes())
	return err
}
