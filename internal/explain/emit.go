package explain

import (
	"fmt"
	"io"

	"multidiag/internal/obs"
)

// Emitter streams flight-recorder events through the shared sticky-error
// JSONL writer. The recorder assigns sequence numbers, so events are
// written verbatim. A nil *Emitter ignores every call.
type Emitter = obs.JSONL[Event]

// NewEmitter wraps w. The caller owns w's lifecycle (see Close).
func NewEmitter(w io.Writer) *Emitter { return obs.NewJSONL[Event](w, nil) }

// Open creates a recorder labelled run streaming to path (gzip-compressed
// when path ends in ".gz", matching -trace-out). An empty path returns an
// enabled recorder with no emitter — events are retained in memory only.
// The returned finish must run before exit: it flushes and closes the
// sink and surfaces the first write error. Open itself fails fast on an
// unwritable path.
func Open(path, run string) (*Recorder, func() error, error) {
	rec := New(run)
	if path == "" {
		return rec, func() error { return nil }, nil
	}
	w, err := obs.CreateSink(path)
	if err != nil {
		return nil, nil, fmt.Errorf("explain-out: %w", err)
	}
	em := NewEmitter(w)
	rec.SetEmitter(em)
	return rec, em.Close, nil
}
