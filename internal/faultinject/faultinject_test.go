package faultinject

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/container"
	"altstacks/internal/netlat"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

const echoAction = "urn:echo/Echo"

// sink is a consumer container whose /x and /y acknowledge every
// request, counting the requests they served.
type sink struct {
	c      *container.Container
	served atomic.Int32
}

func startSink(t *testing.T) *sink {
	t.Helper()
	s := &sink{c: container.New(container.SecurityNone)}
	for _, path := range []string{"/x", "/y"} {
		s.c.Register(&container.Service{Path: path, Actions: map[string]container.ActionFunc{
			echoAction: func(*container.Ctx) (*xmlutil.Element, error) {
				s.served.Add(1)
				return xmlutil.New("urn:echo", "Ok"), nil
			},
		}})
	}
	if _, err := s.c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.c.Close)
	return s
}

func (s *sink) epr(path string) wsa.EPR { return s.c.EPR(path) }

func call(c *container.Client, epr wsa.EPR) error {
	_, err := c.Call(epr, echoAction, xmlutil.NewText("urn:echo", "Echo", "x"))
	return err
}

// deliverEach sends n deliveries to epr in one DeliverEach, as a
// fan-out's chunk, and returns their outcomes.
func deliverEach(c *container.Client, epr wsa.EPR, n int) []error {
	errs := make([]error, n)
	c.DeliverEach(context.Background(), n, func(int) container.Message {
		return container.Message{Ctx: context.Background(), To: epr, Action: echoAction, Body: xmlutil.NewText("urn:echo", "Echo", "x")}
	}, func(i int, err error) { errs[i] = err })
	return errs
}

func TestFailFirstThenPass(t *testing.T) {
	s := startSink(t)
	in := New()
	in.Set(s.epr("/x").Address, Plan{FailFirst: 2})
	client := in.WrapClient(container.NewClient(container.ClientConfig{}))

	for i := 0; i < 2; i++ {
		err := call(client, s.epr("/x"))
		var inj *InjectedError
		if err == nil || !errors.As(err, &inj) {
			t.Fatalf("call %d: want injected error, got %v", i, err)
		}
		if inj.Call != i {
			t.Fatalf("call index = %d, want %d", inj.Call, i)
		}
	}
	if err := call(client, s.epr("/x")); err != nil {
		t.Fatalf("call 2 should pass: %v", err)
	}
	if got := in.Calls(s.epr("/x").Address); got != 3 {
		t.Fatalf("Calls = %d, want 3", got)
	}
	if n := s.served.Load(); n != 1 {
		t.Fatalf("the consumer served %d requests, want 1", n)
	}
}

func TestFailAllIsPermanent(t *testing.T) {
	s := startSink(t)
	in := New()
	in.Set(s.epr("/x").Address, Plan{FailAll: true})
	client := in.WrapClient(container.NewClient(container.ClientConfig{}))
	for i := 0; i < 5; i++ {
		if err := call(client, s.epr("/x")); err == nil {
			t.Fatalf("call %d passed a FailAll plan", i)
		}
	}
	if n := s.served.Load(); n != 0 {
		t.Fatalf("a dead endpoint served %d requests", n)
	}
}

func TestUnplannedEndpointsPassThrough(t *testing.T) {
	s := startSink(t)
	in := New()
	in.Set(s.epr("/x").Address, Plan{FailAll: true})
	client := in.WrapClient(container.NewClient(container.ClientConfig{}))
	if err := call(client, s.epr("/y")); err != nil {
		t.Fatal(err)
	}
	if in.Calls(s.epr("/y").Address) != 1 {
		t.Fatal("pass-through calls are not counted per endpoint once planned")
	}
}

func TestDropBlocksUntilCallerTimeout(t *testing.T) {
	s := startSink(t)
	in := New()
	in.Set(s.epr("/x").Address, Plan{DropFirst: 1})
	client := in.WrapClient(container.NewClient(container.ClientConfig{})).WithTimeout(50 * time.Millisecond)
	start := time.Now()
	err := call(client, s.epr("/x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dropped call = %v, want a context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drop did not release at the client timeout: %v", elapsed)
	}
	if n := s.served.Load(); n != 0 {
		t.Fatalf("a dropped request reached the consumer (%d served)", n)
	}
}

// countConns counts the connections it wraps and the writes on them.
type countConns struct{ dials, writes atomic.Int32 }

func (c *countConns) wrap(nc net.Conn) net.Conn {
	c.dials.Add(1)
	return countedConn{nc, c}
}

type countedConn struct {
	net.Conn
	n *countConns
}

func (c countedConn) Write(b []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(b)
}

// TestPipelinedRunOnOneWrite: a wrapped client still pipelines. Three
// deliveries to one address go as one write on one connection, through
// a faultinject harness with no plan and over a LAN link alike, and the
// harness counts each as a call.
func TestPipelinedRunOnOneWrite(t *testing.T) {
	s := startSink(t)
	in := New()
	var faulted, lan countConns
	for name, tc := range map[string]struct {
		client *container.Client
		n      *countConns
	}{
		"faultinject": {in.WrapClient(container.NewClient(container.ClientConfig{}).WrapConns(faulted.wrap)), &faulted},
		"lan":         {container.NewClient(container.ClientConfig{Link: netlat.LAN}).WrapConns(lan.wrap), &lan},
	} {
		served := s.served.Load()
		for i, err := range deliverEach(tc.client.ForDelivery(container.DeliveryPooled), s.epr("/x"), 3) {
			if err != nil {
				t.Fatalf("%s: delivery %d: %v", name, i, err)
			}
		}
		if d, w, n := tc.n.dials.Load(), tc.n.writes.Load(), s.served.Load()-served; d != 1 || w != 1 || n != 3 {
			t.Fatalf("%s: 3 deliveries took %d dials and %d writes, and %d reached the consumer; want 1, 1 and 3", name, d, w, n)
		}
	}
	if n := in.Calls(s.epr("/x").Address); n != 3 {
		t.Fatalf("Calls = %d after a run of 3, want 3", n)
	}
}

// TestFaultsOnPipelinedRun drives each fault against a run of three
// deliveries to one address. A failed or dropped first request fails
// the run whole and reaches the consumer with nothing, and so do delays
// that run into the deadline, at it: the run costs one timeout. No
// request is decided after the one that ended the run.
func TestFaultsOnPipelinedRun(t *testing.T) {
	isInjected := func(err error) bool { var inj *InjectedError; return errors.As(err, &inj) }
	isDeadline := func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }
	ok := func(err error) bool { return err == nil }
	for _, tc := range []struct {
		name    string
		plan    Plan
		timeout time.Duration
		want    [3]func(error) bool
		calls   int
		served  int32
		elapsed time.Duration // the run takes at most this
	}{
		{name: "FailFirst", plan: Plan{FailFirst: 1}, timeout: time.Second,
			want: [3]func(error) bool{isInjected, isInjected, isInjected}, calls: 1, elapsed: 500 * time.Millisecond},
		{name: "DropFirst", plan: Plan{DropFirst: 1}, timeout: 100 * time.Millisecond,
			want: [3]func(error) bool{isDeadline, isDeadline, isDeadline}, calls: 1, elapsed: 250 * time.Millisecond},
		{name: "Delay", plan: Plan{Delay: 20 * time.Millisecond}, timeout: time.Second,
			want: [3]func(error) bool{ok, ok, ok}, calls: 3, served: 3, elapsed: 500 * time.Millisecond},
		{name: "DelayPastDeadline", plan: Plan{Delay: 100 * time.Millisecond}, timeout: 250 * time.Millisecond,
			want: [3]func(error) bool{isDeadline, isDeadline, isDeadline}, calls: 3, elapsed: 400 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startSink(t)
			in := New()
			addr := s.epr("/x").Address
			in.Set(addr, tc.plan)
			client := in.WrapClient(container.NewClient(container.ClientConfig{})).ForDelivery(container.DeliveryPooled).WithTimeout(tc.timeout)
			t0 := time.Now()
			errs := deliverEach(client, s.epr("/x"), 3)
			elapsed := time.Since(t0)
			for i, err := range errs {
				if !tc.want[i](err) {
					t.Errorf("delivery %d: %v", i, err)
				}
			}
			if elapsed > tc.elapsed {
				t.Errorf("the run took %v, want at most %v", elapsed, tc.elapsed)
			}
			if n := in.Calls(addr); n != tc.calls {
				t.Errorf("Calls = %d, want %d", n, tc.calls)
			}
			if n := s.served.Load(); n != tc.served {
				t.Errorf("the consumer served %d requests, want %d", n, tc.served)
			}
		})
	}
}

func TestKeyNormalization(t *testing.T) {
	for in, want := range map[string]string{
		"http://h:80/p": "h:80/p",
		"https://h:443": "h:443",
		"tcp://h:9":     "h:9",
		"h:9":           "h:9",
	} {
		if got := Key(in); got != want {
			t.Fatalf("Key(%q) = %q, want %q", in, got, want)
		}
	}
	if !strings.Contains((&InjectedError{Endpoint: "e", Call: 2}).Error(), "call 2") {
		t.Fatal("InjectedError misformats")
	}
}

// TestCrashMidWrite: a write whose second request fails (here, one to
// another endpoint of the same consumer) crashes the consumer there.
// The first request is answered, the second's reply reads as the
// InjectedError, and the connection takes no further write.
func TestCrashMidWrite(t *testing.T) {
	s := startSink(t)
	in := New()
	in.Set(s.epr("/x").Address, Plan{FailAll: true})
	host := strings.TrimPrefix(s.c.BaseURL(), "http://")
	raw, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{Conn: raw, in: in}
	defer c.Close()
	run := "GET /y HTTP/1.1\r\nHost: " + host + "\r\n\r\n" +
		"POST /x HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: 2\r\n\r\nhi"
	if n, err := c.Write([]byte(run)); n != len(run) || err != nil {
		t.Fatalf("Write = %d, %v; want the whole run taken", n, err)
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("the first request's reply: %v", err)
	}
	resp.Body.Close()
	var inj *InjectedError
	if _, err := http.ReadResponse(br, nil); !errors.As(err, &inj) || inj.Call != 0 {
		t.Fatalf("the failed request's reply = %v, want the injected failure of call 0", err)
	}
	if _, err := c.Write([]byte(run)); !errors.As(err, &inj) {
		t.Fatalf("a write after the crash = %v, want the injected failure", err)
	}
	if n := in.Calls(s.epr("/x").Address); n != 1 {
		t.Fatalf("Calls = %d, want 1", n)
	}
}
