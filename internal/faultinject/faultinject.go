// Package faultinject is the deterministic fault-injection harness for
// the notification delivery paths: it wraps the connections a
// container.Client dials (and the wse TCP deliverer's) so tests can
// make a chosen endpoint fail, hang, or silently drop its first K
// calls — or stay dead forever — and then assert the retry and
// eviction semantics of both stacks under -race without real flaky
// networks. The faults act on the connection, so the client under test
// runs the path production runs, pipelining included. Schedules are
// per endpoint and counted, so a test can also ask how many calls an
// endpoint actually absorbed (for example to prove an evicted
// subscriber is never contacted again).
package faultinject

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// window. Over HTTP the request gets no reply until the connection's
	// deadline (the caller's delivery timeout) passes — a hung consumer.
	// Over TCP the frame write reports success but nothing is sent — a
	// silently lossy sink.
	DropFirst int
	// Delay is added before every call is resolved, injected latency on
	// both faulted and passed calls. It never runs past the write
	// deadline the transport set, by SetDeadline or SetWriteDeadline.
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

// WrapClient returns a copy of c, with a connection pool of its own,
// whose every HTTP request is a call: it wraps each connection the
// client dials (container.Client.WrapConns), outside any link model
// the client has, so a pooled delivery client still pipelines. Wrap
// once, before WithTimeout and ForDelivery, which keep the wrapping.
func (in *Injector) WrapClient(c *container.Client) *container.Client {
	return c.WrapConns(func(nc net.Conn) net.Conn { return newConn(nc, in, "") })
}

// ConnWrapper returns a wse.TCPDeliverer WrapConn hook: each frame
// write on a wrapped connection is a call, keyed by the sink's
// "host:port".
func (in *Injector) ConnWrapper() func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return newConn(c, in, c.RemoteAddr().String()) }
}

// conn decides the calls written on one connection, in order, until one
// fails or is dropped; that call and any after it in the write are not
// decided, and nothing is written twice. The calls the write passed go
// out after their delays, slept together and never past the write
// deadline the transport set (SetDeadline sets it too, as on any
// net.Conn), even one it moves mid-sleep, as a cancelled exchange does:
// a sleep the deadline cuts short fails the write whole.
// A dropped call is swallowed with the rest of the write, so it
// gets no reply. A failed call fails the write if it comes first; a
// plan that changed mid-write fails a later one as a consumer that
// crashed there: the calls before it are answered, and then its reply
// reads as the InjectedError.
type conn struct {
	net.Conn
	in *Injector
	// key keys every write as one call, on a TCP channel; "" frames the
	// writes as HTTP requests.
	key      string
	deadline atomic.Int64 // the write deadline set, in Unix nanoseconds; 0: none
	// moved wakes a write sleeping out its delays when the write
	// deadline moves.
	moved   chan struct{}
	crashed error // what the failed call's reply reads as
}

func newConn(nc net.Conn, in *Injector, key string) *conn {
	return &conn{Conn: nc, in: in, key: key, moved: make(chan struct{}, 1)}
}

func (c *conn) SetDeadline(t time.Time) error {
	c.moveDeadline(t)
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.moveDeadline(t)
	return c.Conn.SetWriteDeadline(t)
}

// moveDeadline records t as the write deadline and wakes a sleeping
// write.
func (c *conn) moveDeadline(t time.Time) {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.deadline.Store(ns)
	select {
	case c.moved <- struct{}{}:
	default: // a wake is pending already
	}
}

func (c *conn) Write(b []byte) (int, error) {
	if c.crashed != nil {
		return 0, c.crashed
	}
	var (
		end   int // b[:end] is passed
		v     verdict
		delay time.Duration
		err   error
	)
	for end < len(b) {
		n, key := c.frame(b[end:])
		var d time.Duration
		var call int
		v, d, call = c.in.decide(key)
		delay += d
		if v == fail {
			err = &InjectedError{Endpoint: key, Call: call}
		}
		if v != pass {
			break
		}
		end += n
	}
	if err := c.sleep(delay); err != nil {
		return 0, err
	}
	if end > 0 {
		if n, werr := c.Conn.Write(b[:end]); werr != nil {
			return n, werr
		}
	}
	if err != nil {
		cw, ok := c.Conn.(interface{ CloseWrite() error })
		if end == 0 || !ok || cw.CloseWrite() != nil {
			return end, err
		}
		c.crashed = err
	}
	return len(b), nil
}

// sleep waits out delay, unless the write deadline comes first: then it
// fails once the deadline passes. SetDeadline and SetWriteDeadline may
// move the deadline meanwhile, and wake sleep to look again.
func (c *conn) sleep(delay time.Duration) error {
	if delay <= 0 {
		return nil
	}
	end := time.Now().Add(delay)
	for {
		wait, err := time.Until(end), error(nil)
		if ns := c.deadline.Load(); ns != 0 {
			if left := time.Until(time.Unix(0, ns)); left < wait {
				wait, err = left, os.ErrDeadlineExceeded
			}
		}
		if wait <= 0 {
			return err
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-c.moved:
			t.Stop()
		}
	}
}

// Read reads the replies; after a crash, their end reads as the crash.
func (c *conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err != nil && c.crashed != nil {
		err = c.crashed
	}
	return n, err
}

// frame returns the length and key of the call at the start of b: on a
// TCP channel the whole write; otherwise an HTTP request, as its head's
// Content-Length frames it, keyed by its Host field and request path.
// Bytes it cannot frame are one call.
func (c *conn) frame(b []byte) (n int, key string) {
	if c.key != "" {
		return len(b), c.key
	}
	head, _, ok := bytes.Cut(b, []byte("\r\n\r\n"))
	if !ok {
		return len(b), ""
	}
	n = len(head) + 4
	line, fields, _ := strings.Cut(string(head), "\r\n")
	_, target, _ := strings.Cut(line, " ")
	target, _, _ = strings.Cut(target, " ")
	path, _, _ := strings.Cut(target, "?")
	for _, f := range strings.Split(fields, "\r\n") {
		switch name, value, _ := strings.Cut(f, ": "); name {
		case "Host":
			key = value + path
		case "Content-Length":
			length, _ := strconv.Atoi(value)
			n += max(length, 0)
		}
	}
	return min(n, len(b)), key
}
