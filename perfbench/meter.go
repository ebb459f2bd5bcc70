package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/obs"
	"altstacks/internal/xmldb"
)

// The traced run times each layer from outside, at its public seams:
// an http.RoundTripper wrapped around a container.Client's transport
// (the wire and the client), another around the VO's service-to-service
// client (gridbox outcalls), an xmldb.Backend wrapper (storage), and
// deltas of the obs stage histograms and counters (the server side).
// None of these is installed in an untraced run.

// exchangeMeter times every HTTP exchange through one client: from the
// request entering the transport to the last response byte read. It
// also tracks busy time, the wall time with at least one exchange in
// flight, so exchanges that overlap (a fan-out) are not double counted.
type exchangeMeter struct {
	base http.RoundTripper

	n, ns, reqBytes, respBytes atomic.Int64

	mu        sync.Mutex
	inflight  int
	busySince time.Time
	busy      time.Duration

	// label, when set, attributes each exchange to a name chosen from
	// its SOAP action (the outcall probe); byLabel counts them.
	label   func(action string) string
	byLabel map[string]int
}

// meterClient installs a meter on c's transport and returns it.
func meterClient(c *container.Client) *exchangeMeter {
	m := &exchangeMeter{base: c.HTTP.Transport}
	if m.base == nil {
		m.base = http.DefaultTransport
	}
	c.HTTP.Transport = m
	return m
}

func (m *exchangeMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	m.mu.Lock()
	if m.inflight == 0 {
		m.busySince = t0
	}
	m.inflight++
	if m.label != nil {
		m.byLabel[m.label(req.Header.Get("SOAPAction"))]++
	}
	m.mu.Unlock()
	m.reqBytes.Add(req.ContentLength)
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		m.done(t0, 0)
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: m, t0: t0}
	return resp, nil
}

func (m *exchangeMeter) done(t0 time.Time, respBytes int64) {
	now := time.Now()
	m.n.Add(1)
	m.ns.Add(int64(now.Sub(t0)))
	m.respBytes.Add(respBytes)
	m.mu.Lock()
	m.inflight--
	if m.inflight == 0 {
		m.busy += now.Sub(m.busySince)
	}
	m.mu.Unlock()
}

// snapshot returns the meter's totals.
func (m *exchangeMeter) snapshot() exchangeTotals {
	m.mu.Lock()
	busy := m.busy
	m.mu.Unlock()
	return exchangeTotals{
		n: m.n.Load(), total: time.Duration(m.ns.Load()), busy: busy,
		reqBytes: m.reqBytes.Load(), respBytes: m.respBytes.Load(),
	}
}

// attribute starts counting exchanges by label (nil stops it) and
// clears earlier counts.
func (m *exchangeMeter) attribute(label func(action string) string) {
	m.mu.Lock()
	m.label, m.byLabel = label, map[string]int{}
	m.mu.Unlock()
}

func (m *exchangeMeter) counts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.byLabel))
	for k, v := range m.byLabel {
		out[k] = v
	}
	return out
}

type exchangeTotals struct {
	n                   int64
	total, busy         time.Duration
	reqBytes, respBytes int64
}

func (a exchangeTotals) add(b exchangeTotals) exchangeTotals {
	return exchangeTotals{a.n + b.n, a.total + b.total, a.busy + b.busy, a.reqBytes + b.reqBytes, a.respBytes + b.respBytes}
}

func (a exchangeTotals) sub(b exchangeTotals) exchangeTotals {
	return exchangeTotals{a.n - b.n, a.total - b.total, a.busy - b.busy, a.reqBytes - b.reqBytes, a.respBytes - b.respBytes}
}

// sumMeters totals a set of meters (nil entries are skipped).
func sumMeters(ms ...*exchangeMeter) exchangeTotals {
	var t exchangeTotals
	for _, m := range ms {
		if m != nil {
			t = t.add(m.snapshot())
		}
	}
	return t
}

// meteredBody ends the exchange's clock at EOF or Close, whichever
// comes first, counting the response bytes read.
type meteredBody struct {
	io.ReadCloser
	m     *exchangeMeter
	t0    time.Time
	bytes int64
	ended bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *meteredBody) end() {
	if !b.ended {
		b.ended = true
		b.m.done(b.t0, b.bytes)
	}
}

// backendMeter wraps an xmldb.Backend, counting and timing every call
// and the document bytes moved through it.
type backendMeter struct {
	xmldb.Backend
	calls, ns, bytes atomic.Int64
}

func (b *backendMeter) note(t0 time.Time, n int) {
	b.calls.Add(1)
	b.ns.Add(int64(time.Since(t0)))
	b.bytes.Add(int64(n))
}

func (b *backendMeter) Put(col, id string, doc []byte) error {
	t0 := time.Now()
	defer b.note(t0, len(doc))
	return b.Backend.Put(col, id, doc)
}

func (b *backendMeter) Get(col, id string) ([]byte, bool, error) {
	t0 := time.Now()
	doc, ok, err := b.Backend.Get(col, id)
	b.note(t0, len(doc))
	return doc, ok, err
}

func (b *backendMeter) Delete(col, id string) error {
	t0 := time.Now()
	defer b.note(t0, 0)
	return b.Backend.Delete(col, id)
}

func (b *backendMeter) IDs(col string) ([]string, error) {
	t0 := time.Now()
	defer b.note(t0, 0)
	return b.Backend.IDs(col)
}

func (b *backendMeter) CondPut(col, id string, doc []byte, wantExists bool) (bool, error) {
	t0 := time.Now()
	defer b.note(t0, len(doc))
	return b.Backend.CondPut(col, id, doc, wantExists)
}

func (b *backendMeter) CondDelete(col, id string) (bool, error) {
	t0 := time.Now()
	defer b.note(t0, 0)
	return b.Backend.CondDelete(col, id)
}

// Has keeps the wrapped backend's presence probe: without it xmldb
// would fall back to a full Get and the traced run would do more work
// than the untraced one.
func (b *backendMeter) Has(col, id string) (bool, error) {
	t0 := time.Now()
	defer b.note(t0, 0)
	if h, ok := b.Backend.(xmldb.Haser); ok {
		return h.Has(col, id)
	}
	_, ok, err := b.Backend.Get(col, id)
	return ok, err
}

// serverSnapshot is the process-global server-side state the traced run
// diffs: the six stage histograms and the container's request and fault
// counters.
type serverSnapshot struct {
	stages           map[string]obs.HistogramSnapshot
	requests, faults int64
}

func takeServerSnapshot() serverSnapshot {
	s := serverSnapshot{stages: map[string]obs.HistogramSnapshot{}}
	for name, h := range obs.Stages() {
		s.stages[name] = h.Snapshot()
	}
	req, faults := container.RequestCounters()
	s.requests, s.faults = req.Value(), faults.Value()
	return s
}

// stageDelta is one stage's observations between two snapshots.
type stageDelta struct {
	count int64
	total time.Duration
}

func (s serverSnapshot) since(prev serverSnapshot) (map[string]stageDelta, int64, int64) {
	out := map[string]stageDelta{}
	for name, snap := range s.stages {
		d := snap.Delta(prev.stages[name])
		out[name] = stageDelta{count: d.Count, total: time.Duration(d.Sum * float64(time.Second))}
	}
	return out, s.requests - prev.requests, s.faults - prev.faults
}
