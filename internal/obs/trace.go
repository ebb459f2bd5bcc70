package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named stage of a request in flight. Spans form a tree
// rooted at the container dispatcher; the context returned by
// StartSpan carries the span so downstream layers parent under it.
//
// A nil *Span is the disabled-mode value: every method is a no-op on
// it, so instrumented code never branches on Enabled itself.
//
// Spans are not goroutine-safe: each span is created, annotated, and
// ended on the goroutine doing that stage's work (fan-out workers get
// their own child spans).
type Span struct {
	trace    *trace
	id       string
	parentID string
	name     string
	start    time.Time
	end      time.Time // when its stage finished, if stamped

	messageID string
	relatesTo string
	err       string
	attrs     []Attr
	events    []string
}

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// trace is the in-flight collection of one root span's tree.
type trace struct {
	id string

	mu       sync.Mutex
	root     *Span
	spans    []SpanData
	nextSpan int
	done     bool
}

type spanCtxKey struct{}

var traceSeq atomic.Int64

// spansDropped counts spans that ended after their root had already
// flushed the trace — a structural bug worth a counter, not a panic.
var spansDropped = NewCounter("ogsa_trace_spans_dropped_total", "",
	"spans ended after their trace was already flushed")

// tracesTotal counts finished traces pushed into the ring.
var tracesTotal = NewCounter("ogsa_traces_total", "", "finished traces recorded")

// StartSpan opens a span named name. When a span is already in ctx the
// new span joins its trace as a child; otherwise a new trace begins
// (the container dispatcher is the intended root). It returns ctx
// carrying the new span plus the span itself; in disabled mode it
// returns ctx unchanged and a nil span.
//
// Never pass context.Background() here from request-path code: a span
// rooted on a fresh context starts an orphan trace (ogsalint/ctxflow
// flags it).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	var t *trace
	parentID := ""
	if parent != nil {
		t = parent.trace
		parentID = parent.id
	} else {
		t = &trace{id: fmt.Sprintf("t%06d", traceSeq.Add(1))}
	}
	t.mu.Lock()
	t.nextSpan++
	id := fmt.Sprintf("s%d", t.nextSpan)
	t.mu.Unlock()
	s := &Span{trace: t, id: id, parentID: parentID, name: name, start: time.Now()}
	if parent == nil {
		t.root = s
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// ChildSpan opens a span only when ctx already carries one — the shape
// for leaf layers (storage, verification, serialization) that must
// join a request trace but never start an orphan one from a
// context-free call path. It does not rewrap ctx: leaves have no
// children.
func ChildSpan(ctx context.Context, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return nil
	}
	t := parent.trace
	t.mu.Lock()
	t.nextSpan++
	id := fmt.Sprintf("s%d", t.nextSpan)
	t.mu.Unlock()
	return &Span{trace: t, id: id, parentID: parent.id, name: name, start: time.Now()}
}

// SpanFromContext returns the span ctx carries, or nil. The client
// uses it to stamp the outbound MessageID onto whatever delivery or
// handler span triggered the call.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// TraceID returns the id of the trace the span belongs to ("" for a
// nil span). Exemplars use it to link a histogram bucket back to the
// retained trace.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// SetMessageID records the WS-Addressing MessageID this span sent or
// received — the cross-process correlation key Stitch joins on.
func (s *Span) SetMessageID(id string) {
	if s != nil {
		s.messageID = id
	}
}

// SetRelatesTo records the RelatesTo header observed on the paired
// message (the response to a call, or the request being replied to).
func (s *Span) SetRelatesTo(id string) {
	if s != nil {
		s.relatesTo = id
	}
}

// SetAttr annotates the span with a key/value pair.
func (s *Span) SetAttr(k, v string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{K: k, V: v})
	}
}

// Annotate appends a free-form event line (retry attempts use it).
func (s *Span) Annotate(msg string) {
	if s != nil {
		s.events = append(s.events, msg)
	}
}

// Fail records the error that ended the stage.
func (s *Span) Fail(err error) {
	if s != nil && err != nil {
		s.err = err.Error()
	}
}

// Stamp marks now as when the span's stage finished, for a stage whose
// bookkeeping ends later: End and ObserveSinceSpan then measure to the
// latest stamp instead of to their own call.
func (s *Span) Stamp() {
	if s != nil {
		s.end = time.Now()
	}
}

// finished returns when the span's stage finished: its stamp, or now.
func (s *Span) finished() time.Time {
	if s == nil || s.end.IsZero() {
		return time.Now()
	}
	return s.end
}

// End closes the span. Ending the root span flushes the whole trace
// into the bounded ring buffer.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := s.finished().Sub(s.start)
	t := s.trace
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		spansDropped.Inc()
		return
	}
	t.spans = append(t.spans, SpanData{
		ID: s.id, Parent: s.parentID, Name: s.name,
		Start: s.start, DurationNs: d.Nanoseconds(),
		MessageID: s.messageID, RelatesTo: s.relatesTo,
		Err: s.err, Attrs: s.attrs, Events: s.events,
	})
	isRoot := t.root == s
	if isRoot {
		t.done = true
	}
	spans := t.spans
	id := t.id
	t.mu.Unlock()
	if isRoot {
		tracesTotal.Inc()
		ring.add(TraceData{ID: id, Spans: spans})
	}
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	ID         string    `json:"id"`
	Parent     string    `json:"parent,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	MessageID  string    `json:"message_id,omitempty"`
	RelatesTo  string    `json:"relates_to,omitempty"`
	Err        string    `json:"err,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Events     []string  `json:"events,omitempty"`
}

// TraceData is one finished trace: the spans of a root's tree in
// end order (children before their parents).
type TraceData struct {
	ID    string     `json:"id"`
	Spans []SpanData `json:"spans"`
}

// Root returns the trace's root span (the one with no parent).
func (t TraceData) Root() *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Parent == "" {
			return &t.Spans[i]
		}
	}
	return nil
}

// Span returns the first span with the given name, or nil.
func (t TraceData) Span(name string) *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// RingCap bounds how many finished traces are retained.
const RingCap = 256

type traceRing struct {
	mu    sync.Mutex
	buf   []TraceData
	next  int
	total int64
}

var ring traceRing

func (r *traceRing) add(t TraceData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < RingCap {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
		r.next = (r.next + 1) % RingCap
	}
	r.total++
}

func (r *traceRing) snapshot() []TraceData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceData, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Traces returns the retained finished traces, oldest first.
func Traces() []TraceData { return ring.snapshot() }

// TracesJSON renders the retained traces as a JSON array — the body
// the admin /traces endpoint serves.
func TracesJSON() ([]byte, error) {
	return json.MarshalIndent(Traces(), "", "  ")
}

// ResetTraces empties the ring (tests isolate themselves with it).
func ResetTraces() {
	ring.mu.Lock()
	ring.buf, ring.next, ring.total = nil, 0, 0
	ring.mu.Unlock()
}

// Stitch merges traces across process (or container) boundaries: when
// a span in one trace carries the MessageID that another trace's root
// received, the second trace is the downstream half of the first —
// its spans join the upstream trace, the downstream root reparented
// under the sending span. Stitching repeats until no link remains, so
// chains (publish → delivery → nested call) collapse into one logical
// trace. Span IDs from absorbed traces are prefixed with their
// original trace id to stay unique.
func Stitch(traces []TraceData) []TraceData {
	out := make([]TraceData, len(traces))
	copy(out, traces)
	for {
		merged := false
		// Index root MessageIDs of candidate downstream traces.
		byRootMsg := map[string]int{}
		for i, t := range out {
			if root := t.Root(); root != nil && root.MessageID != "" {
				byRootMsg[root.MessageID] = i
			}
		}
		for i := range out {
			for _, s := range out[i].Spans {
				if s.Parent == "" || s.MessageID == "" {
					continue // roots link via their own trace entry
				}
				j, ok := byRootMsg[s.MessageID]
				if !ok || j == i {
					continue
				}
				out[i] = absorb(out[i], out[j], s.ID)
				out = append(out[:j], out[j+1:]...)
				merged = true
				break
			}
			if merged {
				break
			}
		}
		if !merged {
			return out
		}
	}
}

// absorb grafts downstream's spans into upstream under linkSpanID.
func absorb(upstream, downstream TraceData, linkSpanID string) TraceData {
	prefix := downstream.ID + "."
	for _, s := range downstream.Spans {
		s.ID = prefix + s.ID
		if s.Parent == "" {
			s.Parent = linkSpanID
		} else {
			s.Parent = prefix + s.Parent
		}
		upstream.Spans = append(upstream.Spans, s)
	}
	return upstream
}
