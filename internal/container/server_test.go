package container

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// dialPlain opens a raw connection to a plain container.
func dialPlain(t *testing.T, c *Container) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(c.BaseURL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitService answers its one action once the container's context is
// done, first signalling entered, and sends the context's error on done.
func waitService(entered chan<- struct{}, done chan<- error) *Service {
	return &Service{
		Path: "/wait",
		Actions: map[string]ActionFunc{
			"urn:w/Wait": func(ctx *Ctx) (*xmlutil.Element, error) {
				entered <- struct{}{}
				select {
				case <-ctx.Context.Done():
					done <- ctx.Context.Err()
				case <-time.After(5 * time.Second):
					done <- errors.New("request context still live 5 s after Close")
				}
				return xmlutil.New("urn:w", "Done"), nil
			},
		},
	}
}

// TestCloseCancelsHandlerContext: Close cancels the context of a handler
// that is still running, and returns once that handler has.
func TestCloseCancelsHandlerContext(t *testing.T) {
	c := New(SecurityNone)
	entered, done := make(chan struct{}, 1), make(chan error, 1)
	c.Register(waitService(entered, done))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	go NewClient(ClientConfig{}).Call(c.EPR("/wait"), "urn:w/Wait", xmlutil.New("urn:w", "Wait")) //nolint:errcheck // fails when Close drops the connection
	<-entered
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler context: %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Close returned before the in-flight handler did")
	}
}

// TestCloseClosesIdleConnections: Close closes the keep-alive
// connections a pooled client holds, so the client's next call, to a
// container now listening on the same address, dials afresh and
// succeeds first time.
func TestCloseClosesIdleConnections(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	c := New(SecurityNone)
	c.Register(echoService())
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	epr := c.EPR("/echo")
	client := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled)
	call := func() error {
		_, err := client.CallContext(context.Background(), epr, "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "x"))
		return err
	}
	for i := 0; i < 2; i++ {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	next := New(SecurityNone)
	next.Register(echoService())
	ln, err := net.Listen("tcp", strings.TrimPrefix(c.BaseURL(), "http://"))
	if err != nil {
		t.Skipf("address not free again: %v", err)
	}
	next.serve(ln)
	t.Cleanup(next.Close)
	dialed, reused := obs.DeliveryConnsDialed.Value(), obs.DeliveryConnsReused.Value()
	if err := call(); err != nil {
		t.Fatalf("call after Close: %v", err)
	}
	if d, r := obs.DeliveryConnsDialed.Value()-dialed, obs.DeliveryConnsReused.Value()-reused; d != 1 || r != 0 {
		t.Fatalf("call after Close dialed %d and reused %d connections, want 1 and 0", d, r)
	}
}

// TestPipelinedRequests: two requests sent in one write get two
// replies, in order.
func TestPipelinedRequests(t *testing.T) {
	c, _ := startPlain(t)
	conn := dialPlain(t, c)
	io.WriteString(conn, rawPostText("/echo", "", echoRequest("urn:echo/Echo", "first"))+
		rawPostText("/echo", "", echoRequest("urn:echo/Echo", "second")))
	br := bufio.NewReader(conn)
	for _, said := range []string{"first", "second"} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), ">"+said+"<") {
			t.Fatalf("reply for %q: %d %q, %v", said, resp.StatusCode, body, err)
		}
	}
}

// TestClosingRequests: a request the server does not read through, or
// that asks for it, gets one reply that says Connection: close, and then
// the connection closes.
func TestClosingRequests(t *testing.T) {
	c, _ := startPlain(t)
	req := echoRequest("urn:echo/Echo", "x")
	for _, tc := range []struct {
		name, request string
		status        int
	}{
		{"chunked", "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", http.StatusNotImplemented},
		{"HTTP/1.0", strings.Replace(rawPostText("/echo", "", req), "HTTP/1.1", "HTTP/1.0", 1), http.StatusOK},
		{"malformed", "POST /echo HTTP/1.1\r\nNo colon here\r\n\r\n", http.StatusBadRequest},
		{"differing lengths", "POST /echo HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy", http.StatusBadRequest},
		{"HTTP/2.0", "POST /echo HTTP/2.0\r\nHost: x\r\n\r\n", http.StatusHTTPVersionNotSupported},
		{"head over 1 MiB", "POST /echo HTTP/1.1\r\nX-Big: " + strings.Repeat("a", maxHead) + "\r\n\r\n", http.StatusRequestHeaderFieldsTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialPlain(t, c)
			go io.WriteString(conn, tc.request) //nolint:errcheck // the server may hang up before reading it all
			br := bufio.NewReader(conn)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || !resp.Close {
				t.Fatalf("reply %d, Connection: close %v; want %d and close", resp.StatusCode, resp.Close, tc.status)
			}
			if n, err := br.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("after the reply: read %d, %v; want EOF", n, err)
			}
		})
	}
}

// serverFrames name the functions of the container's server and of the
// net/http server it replaced.
var serverFrames = []string{
	"container.(*Container).accept",
	"container.(*Container).serveConn",
	"net/http.(*Server).Serve",
	"net/http.(*conn).serve",
	"net/http.(*connReader).backgroundRead",
}

// TestNoServerGoroutineOutlivesClose: once Close returns, no goroutine
// of the server is left, with connections idle, mid-head and mid-request
// when it ran.
func TestNoServerGoroutineOutlivesClose(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	entered, done := make(chan struct{}, 1), make(chan error, 1)
	c.Register(waitService(entered, done))
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	client := NewClient(ClientConfig{})
	for i := 0; i < 3; i++ {
		if _, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "x")); err != nil {
			t.Fatal(err)
		}
	}
	io.WriteString(dialPlain(t, c), "POST /echo HTTP/1.1\r\nHost: x\r\n")
	go client.Call(c.EPR("/wait"), "urn:w/Wait", xmlutil.New("urn:w", "Wait")) //nolint:errcheck // fails when Close drops the connection
	<-entered
	c.Close()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Done") {
			continue // signalled its exit to Close: in its last call
		}
		for _, frame := range serverFrames {
			if strings.Contains(g, frame) {
				t.Fatalf("server goroutine alive after Close:\n%s", g)
			}
		}
	}
}

// TestEchoCallAllocs pins the allocations of one plain echo Call, the
// client's and the server's together. It measured 24 with the client
// writing its own request head and parsing its own reply, 43 when the
// client built net/http's request and read net/http's response, and 73
// on net/http's server; the pin leaves the same headroom above the
// first as it left above the second.
func TestEchoCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	c, _ := startPlain(t)
	client := NewClient(ClientConfig{})
	epr := c.EPR("/echo")
	body := xmlutil.NewText("urn:echo", "Echo", "hello")
	call := func() {
		if _, err := client.Call(epr, "urn:echo/Echo", body); err != nil {
			t.Fatal(err)
		}
	}
	call()
	const limit = 31.0
	if allocs := testing.AllocsPerRun(200, call); allocs > limit {
		t.Fatalf("echo Call = %.1f allocs, want <= %.0f", allocs, limit)
	}
}

// TestTimedDeliverAllocs pins what a pooled delivery through a client
// with a timeout allocates, both sides of the exchange counted: the
// timeout is a deadline on the connection, not a context, so it costs
// nothing over an untimed delivery's 18 allocations, where a context
// and its AfterFunc registration cost 9.
func TestTimedDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	c, _ := startPlain(t)
	delivery := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled).WithTimeout(time.Minute)
	epr := c.EPR("/echo")
	body := xmlutil.NewText("urn:echo", "Echo", "hello")
	deliver := func() {
		if err := delivery.Deliver(context.Background(), epr, "urn:echo/Echo", nil, body); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	const limit = 20.0
	if allocs := testing.AllocsPerRun(200, deliver); allocs > limit {
		t.Fatalf("timed Deliver = %.1f allocs, want <= %.0f", allocs, limit)
	}
}

// TestRequestOneBytePerWrite: two pipelined requests written one byte
// per write are both answered, in order.
func TestRequestOneBytePerWrite(t *testing.T) {
	c, _ := startPlain(t)
	conn := dialPlain(t, c)
	run := rawPostText("/echo", "", echoRequest("urn:echo/Echo", "first")) +
		rawPostText("/echo", "", echoRequest("urn:echo/Echo", "second"))
	go func() {
		for i := range len(run) {
			if _, err := io.WriteString(conn, run[i:i+1]); err != nil {
				return // the test failed and closed the connection
			}
		}
	}()
	br := bufio.NewReader(conn)
	for _, said := range []string{"first", "second"} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), ">"+said+"<") {
			t.Fatalf("reply for %q: %d %q, %v", said, resp.StatusCode, body, err)
		}
	}
}

// stepConn is an inbound connection fed by hand: each read reports its
// length on reads, then takes the next chunk from feed (EOF once feed
// is closed); each write goes to written.
type stepConn struct {
	*inConn
	reads   chan int
	feed    chan []byte
	written chan []byte
}

func (c *stepConn) Read(p []byte) (int, error) {
	c.reads <- len(p)
	b, ok := <-c.feed
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

func (c *stepConn) Write(p []byte) (int, error) {
	c.written <- append([]byte(nil), p...)
	return len(p), nil
}

// TestRunBufferLentPerRun: an idle connection holds no read buffer and
// waits with a one-byte read; it then borrows a run buffer, reads the
// rest of a pipelined run in one read, answers the run in one write,
// and returns the buffer before it waits again.
func TestRunBufferLentPerRun(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	conn := &stepConn{inConn: &inConn{}, reads: make(chan int), feed: make(chan []byte), written: make(chan []byte, 1)}
	sc := &srvConn{c: c, nc: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.serve()
	}()
	run := []byte(rawPostText("/echo", "", echoRequest("urn:echo/Echo", "first")) +
		rawPostText("/echo", "", echoRequest("urn:echo/Echo", "second")))
	for i := 0; i < 2; i++ {
		// sc.br is read between the server goroutine's send on reads and
		// its receive from feed, while it is blocked.
		if n := <-conn.reads; n != 1 || sc.br != nil {
			t.Fatalf("run %d: the idle connection reads %d bytes, holding a read buffer %v; want 1 and none", i, n, sc.br != nil)
		}
		conn.feed <- run[:1]
		if n := <-conn.reads; n != maxRunBytes-1 || sc.br == nil {
			t.Fatalf("run %d: the run's second read takes up to %d bytes, from a lent buffer %v; want %d", i, n, sc.br != nil, maxRunBytes-1)
		}
		conn.feed <- run[1:]
		if out := <-conn.written; bytes.Count(out, []byte("HTTP/1.1 200 OK")) != 2 {
			t.Fatalf("run %d: the first write holds %q, want both replies", i, out)
		}
	}
	if n := <-conn.reads; n != 1 || sc.br != nil {
		t.Fatalf("after two runs: the idle connection reads %d bytes, holding a read buffer %v; want 1 and none", n, sc.br != nil)
	}
	close(conn.feed)
	<-done
}
