// Package faultinject is the deterministic fault-injection harness for
// the notification delivery paths: it wraps a container.Client's HTTP
// transport (and the wse TCP deliverer's connections) so tests can
// make a chosen endpoint fail, hang, or silently drop its first K
// calls — or stay dead forever — and then assert the retry and
// eviction semantics of both stacks under -race without real flaky
// networks. Schedules are per endpoint and counted, so a test can also
// ask how many calls an endpoint actually absorbed (for example to
// prove an evicted subscriber is never contacted again).
package faultinject

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"altstacks/internal/container"
)

// Plan is the fault schedule for one endpoint. Calls are counted from
// zero; each call consults the schedule in order: Delay, then FailAll,
// then the FailFirst window, then the DropFirst window, then
// pass-through.
type Plan struct {
	// FailAll fails every call — a permanently dead endpoint.
	FailAll bool
	// FailFirst fails this many initial calls with an InjectedError
	// (the flaky-then-healthy consumer).
	FailFirst int
	// DropFirst swallows the next DropFirst calls after the FailFirst
	// window. Over HTTP the call blocks until the request's context
	// (the caller's delivery timeout) expires — a hung consumer. Over
	// TCP the frame write reports success but nothing is sent — a
	// silently lossy sink.
	DropFirst int
	// Delay is added before every call is resolved, injected latency on
	// both faulted and passed calls.
	Delay time.Duration
}

// InjectedError marks a failure manufactured by the harness.
type InjectedError struct {
	Endpoint string
	Call     int // 0-based call index that failed
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected failure on call %d to %s", e.Call, e.Endpoint)
}

// Injector holds per-endpoint schedules and call counts. The zero
// value is not usable; call New.
type Injector struct {
	mu  sync.Mutex
	eps map[string]*endpointState
}

type endpointState struct {
	plan  Plan
	calls int
}

// New returns an empty injector: every endpoint passes through until a
// Plan is set for it.
func New() *Injector { return &Injector{eps: map[string]*endpointState{}} }

// Key normalizes an endpoint address ("http://h:p/path", "tcp://h:p",
// or already-bare "h:p/path") to the form schedules are keyed by.
func Key(addr string) string {
	for _, scheme := range []string{"http://", "https://", "tcp://"} {
		if strings.HasPrefix(addr, scheme) {
			return addr[len(scheme):]
		}
	}
	return addr
}

// Set installs (or replaces) the schedule for an endpoint and resets
// its call count.
func (in *Injector) Set(addr string, p Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.eps[Key(addr)] = &endpointState{plan: p}
}

// Clear removes the endpoint's schedule entirely: subsequent calls
// pass through (and are counted from zero again). Churn profiles use
// it to resurrect an endpoint that Set(FailAll) killed.
func (in *Injector) Clear(addr string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.eps, Key(addr))
}

// Calls reports how many calls the endpoint has absorbed since its
// schedule was set (faulted and passed alike).
func (in *Injector) Calls(addr string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.eps[Key(addr)]; ok {
		return st.calls
	}
	return 0
}

type verdict int

const (
	pass verdict = iota
	fail
	drop
)

// decide consumes one call against the endpoint's schedule. Endpoints
// without a schedule pass through but are still counted, so tests can
// observe traffic to healthy endpoints too.
func (in *Injector) decide(key string) (verdict, time.Duration, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.eps[key]
	if !ok {
		st = &endpointState{}
		in.eps[key] = st
	}
	n := st.calls
	st.calls++
	p := st.plan
	switch {
	case p.FailAll || n < p.FailFirst:
		return fail, p.Delay, n
	case n < p.FailFirst+p.DropFirst:
		return drop, p.Delay, n
	default:
		return pass, p.Delay, n
	}
}

// Transport wraps an HTTP round-tripper; requests are keyed by
// "host:port/path". A dropped request blocks until its context is done
// (hand the client a timeout or the call hangs, exactly like the real
// failure mode being modeled).
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Host + req.URL.Path
	v, delay, n := t.in.decide(key)
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	switch v {
	case fail:
		return nil, &InjectedError{Endpoint: key, Call: n}
	case drop:
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return t.base.RoundTrip(req)
}

// WrapClient returns a copy of c whose transport routes through the
// injector. Wrapping composes with the container client's own
// decorators (WithTimeout, ForDelivery), so wrap once before handing
// the client to a producer or source. A client without a transport is
// given a default-configured container transport to wrap.
func (in *Injector) WrapClient(c *container.Client) *container.Client {
	cp := *c
	var hc http.Client
	if c.HTTP != nil {
		hc = *c.HTTP
	}
	if hc.Transport == nil {
		hc.Transport = container.NewClient(container.ClientConfig{}).HTTP.Transport
	}
	hc.Transport = in.Transport(hc.Transport)
	cp.HTTP = &hc
	return &cp
}

// ConnWrapper returns a wse.TCPDeliverer WrapConn hook: frame writes
// on wrapped connections are keyed by the sink's "host:port" and
// consume the same per-endpoint schedule as HTTP calls.
func (in *Injector) ConnWrapper() func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		return &conn{Conn: c, in: in, key: c.RemoteAddr().String()}
	}
}

type conn struct {
	net.Conn
	in  *Injector
	key string
}

func (c *conn) Write(b []byte) (int, error) {
	v, delay, n := c.in.decide(c.key)
	if delay > 0 {
		time.Sleep(delay)
	}
	switch v {
	case fail:
		return 0, &InjectedError{Endpoint: c.key, Call: n}
	case drop:
		// Silently lossy: the write "succeeds" but nothing reaches the
		// sink — the one-way TCP channel's own failure mode.
		return len(b), nil
	}
	return c.Conn.Write(b)
}
