package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// PhaseNS is the JSONL rendering of one phase aggregate.
type PhaseNS struct {
	Count int64 `json:"n"`
	DurNS int64 `json:"dur_ns"`
}

// Event is one JSONL trace record. Two kinds are emitted:
//
//	{"kind":"span","run":…,"phase":…,"seq":…,"start_ns":…,"dur_ns":…}
//	{"kind":"run","run":…,"seq":…,"dur_ns":…,"phases":{…},"counters":{…},"extra":{…}}
//
// seq is a process-wide monotone sequence per emitter, so interleaved
// concurrent emission stays reconstructible offline.
type Event struct {
	Kind     string             `json:"kind"`
	Run      string             `json:"run,omitempty"`
	Phase    string             `json:"phase,omitempty"`
	Seq      int64              `json:"seq"`
	StartNS  int64              `json:"start_ns,omitempty"`
	DurNS    int64              `json:"dur_ns,omitempty"`
	Phases   map[string]PhaseNS `json:"phases,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Extra    map[string]any     `json:"extra,omitempty"`
}

// JSONL serializes values as JSON Lines onto one writer. It is the one
// sticky-error writer behind every JSONL stream: obs run and span events
// (Emitter), explain flight-recorder events and prof snapshots. It is
// safe for concurrent use and keeps the first write/encode error sticky,
// so a CLI can stream fire-and-forget from hot paths and still fail
// loudly at exit instead of silently dropping records. A nil *JSONL
// ignores every call.
type JSONL[T any] struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	stamp func(T, int64) T
	n     int64
	err   error
}

// NewJSONL wraps w. stamp, when non-nil, gives each value its sequence
// number (the count of lines written before it) just before encoding.
// The caller owns w's lifecycle (see Close).
func NewJSONL[T any](w io.Writer, stamp func(v T, seq int64) T) *JSONL[T] {
	return &JSONL[T]{w: w, enc: json.NewEncoder(w), stamp: stamp}
}

// Emitter streams obs Events, stamping each with its sequence number.
type Emitter = JSONL[Event]

// NewEmitter wraps w. The caller owns w's lifecycle (see Close).
func NewEmitter(w io.Writer) *Emitter {
	return NewJSONL(w, func(ev Event, seq int64) Event {
		ev.Seq = seq
		return ev
	})
}

// Emit writes v as one line. After the first failure every subsequent
// Emit returns the same sticky error without writing.
func (e *JSONL[T]) Emit(v T) error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	if e.stamp != nil {
		v = e.stamp(v, e.n)
	}
	if err := e.enc.Encode(v); err != nil {
		e.err = fmt.Errorf("obs: emit failed: %w", err)
		return e.err
	}
	e.n++
	return nil
}

// Events returns the number of successfully emitted records.
func (e *JSONL[T]) Events() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Err returns the sticky error, if any emission failed.
func (e *JSONL[T]) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close closes the underlying writer when it is an io.Closer and returns
// the sticky emission error (which takes precedence over the close error:
// dropped events matter more than a double-close).
func (e *JSONL[T]) Close() error {
	if e == nil {
		return nil
	}
	var closeErr error
	if c, ok := e.w.(io.Closer); ok {
		closeErr = c.Close()
	}
	if err := e.Err(); err != nil {
		return err
	}
	return closeErr
}
