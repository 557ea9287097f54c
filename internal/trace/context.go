package trace

import (
	"context"
	"strings"
)

// ctxKey keys the span context carried through context.Context.
type ctxKey struct{}

// spanCtx is the context carrying the request's tree plus the span that
// new children should hang under. It wraps its parent context itself
// rather than going through context.WithValue, so attaching a span costs
// one allocation, and FromContext reads it without interface boxing.
type spanCtx struct {
	context.Context
	tree   *Tree
	parent SpanID
}

func (c *spanCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// SpanContext is the tracing state extracted from a context: which tree
// (if any) this request records into and which span is the current
// parent. The zero value is inert.
type SpanContext struct {
	tree   *Tree
	parent SpanID
}

// FromContext extracts the span context. A context without one yields the
// inert zero value — the allocation-free disabled path.
func FromContext(ctx context.Context) SpanContext {
	if sc, ok := ctx.Value(ctxKey{}).(*spanCtx); ok {
		return SpanContext{tree: sc.tree, parent: sc.parent}
	}
	return SpanContext{}
}

// Enabled reports whether spans started from this context record anywhere.
func (sc SpanContext) Enabled() bool { return sc.tree != nil }

// Tree returns the carried tree (nil when inert).
func (sc SpanContext) Tree() *Tree { return sc.tree }

// Start opens a span under the context's current parent (a root-level
// span when the context carries a tree but no parent yet).
func (sc SpanContext) Start(name string) Span {
	if sc.tree == nil {
		return Span{}
	}
	if sc.parent.IsZero() {
		return sc.tree.Start(name)
	}
	return sc.tree.startSpan(name, sc.parent)
}

// WithTree returns a context carrying t with no current parent. A nil
// tree returns ctx unchanged.
func WithTree(ctx context.Context, t *Tree) context.Context {
	if t == nil {
		return ctx
	}
	return &spanCtx{Context: ctx, tree: t}
}

// WithSpan returns a context under which new spans become children of s.
// An inert span returns ctx unchanged, so the disabled path allocates
// nothing.
func WithSpan(ctx context.Context, s Span) context.Context {
	if s.t == nil {
		return ctx
	}
	return &spanCtx{Context: ctx, tree: s.t, parent: s.id}
}

// Traceparent renders a W3C trace context header value, version 00. The
// sampled flag is always set: this process decided to record the request
// (tail-based capture decides retention later, which traceparent cannot
// express).
func Traceparent(t TraceID, s SpanID) string {
	var b strings.Builder
	b.Grow(55)
	b.WriteString("00-")
	b.WriteString(t.String())
	b.WriteString("-")
	b.WriteString(s.String())
	b.WriteString("-01")
	return b.String()
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte (per spec, future versions must stay parseable as version
// 00 prefixes) and rejects malformed or all-zero IDs.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	// version "-" traceid(32) "-" spanid(16) "-" flags(2) [rest]
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if !hexDecode(tid[:], h[3:35]) || !hexDecode(sid[:], h[36:52]) {
		return TraceID{}, SpanID{}, false
	}
	if !isHex(h[:2]) || !isHex(h[53:55]) || h[:2] == "ff" {
		return TraceID{}, SpanID{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// hexDecode fills dst from the lowercase-or-uppercase hex in src,
// reporting success. len(src) must be 2·len(dst).
func hexDecode(dst []byte, src string) bool {
	for i := range dst {
		hi, ok1 := hexVal(src[2*i])
		lo, ok2 := hexVal(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if _, ok := hexVal(s[i]); !ok {
			return false
		}
	}
	return true
}
