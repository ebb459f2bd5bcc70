package container

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// The transport's edges, each against a real loopback listener: what
// it pools, what it must not, and how a peer's odd replies end.

const okReply = `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><r:Ok xmlns:r="urn:echo"/></soap:Body></soap:Envelope>`

// rawPeer is a hand-driven HTTP/1.1 server: it reads each request on a
// connection and answers it through reply, which writes the reply bytes
// and returns whether the peer keeps the connection open afterwards.
type rawPeer struct {
	addr     string
	accepts  atomic.Int32
	requests atomic.Int32
	// ended receives once per connection, when either side closed it.
	ended chan struct{}
	reqs  chan []byte // every request, head and body, in arrival order
}

func startRawPeer(t *testing.T, reply func(w io.Writer, n int) (keep bool)) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{addr: ln.Addr().String(), ended: make(chan struct{}, 1024), reqs: make(chan []byte, 1024)}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.ended <- struct{}{} }()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					head, err := readHead(br)
					if err != nil {
						return
					}
					req := append(head, make([]byte, max(contentLength(head), 0))...)
					if _, err := io.ReadFull(br, req[len(head):]); err != nil {
						return
					}
					p.reqs <- req
					if !reply(c, int(p.requests.Add(1))) {
						return
					}
				}
			}()
		}
	}()
	return p
}

func (p *rawPeer) epr() wsa.EPR { return wsa.NewEPR("http://" + p.addr + "/consumer") }

// awaitEnded waits for n connections to end.
func (p *rawPeer) awaitEnded(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-p.ended:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d connections still open", n-i, n)
		}
	}
}

// plainReply answers with okReply under Content-Length and extra head
// lines.
func plainReply(extra string) func(io.Writer, int) bool {
	return func(w io.Writer, _ int) bool {
		_, err := io.WriteString(w, "HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\n"+extra+
			"Content-Length: "+strconv.Itoa(len(okReply))+"\r\n\r\n"+okReply)
		return err == nil
	}
}

var echoBody = xmlutil.NewText("urn:echo", "Echo", "x")

func callOK(t testing.TB, c *Client, epr wsa.EPR) {
	t.Helper()
	resp, err := c.Call(epr, "urn:echo/Echo", echoBody)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name.Local != "Ok" {
		t.Fatalf("reply body = %s", resp)
	}
}

func deliverOK(t testing.TB, c *Client, epr wsa.EPR) {
	t.Helper()
	if err := c.Deliver(context.Background(), epr, "urn:echo/Echo", nil, echoBody); err != nil {
		t.Fatal(err)
	}
}

// TestTransportPoolsConnections: sequential exchanges, Call and pooled
// Deliver alike, dial once and then reuse; concurrent ones share the
// pool (run with -race -count=10).
func TestTransportPoolsConnections(t *testing.T) {
	p := startRawPeer(t, plainReply(""))
	client := NewClient(ClientConfig{})
	delivery := client.ForDelivery(DeliveryPooled)
	for i := 0; i < 5; i++ {
		callOK(t, client, p.epr())
		deliverOK(t, delivery, p.epr())
	}
	if n := p.accepts.Load(); n != 1 {
		t.Fatalf("10 sequential exchanges dialed %d connections, want 1", n)
	}
	// An idle connection holds no read buffer: a fan-out's pool of them
	// must not pin 4 KB apiece.
	tr := client.HTTP.Transport.(*transport)
	tr.mu.Lock()
	for _, pc := range tr.idle {
		if pc.br != nil {
			t.Error("a pooled connection kept its read buffer")
		}
	}
	tr.mu.Unlock()

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := delivery.Deliver(context.Background(), p.epr(), "urn:echo/Echo", nil, echoBody); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := p.requests.Load(); n != 10+workers*rounds {
		t.Fatalf("peer saw %d requests, want %d", n, 10+workers*rounds)
	}
	if n := p.accepts.Load(); n > 1+workers {
		t.Fatalf("%d workers dialed %d connections, want at most %d", workers, n, 1+workers)
	}
}

// TestTransportPerMessageDelivery: DeliveryPerMessage asks the peer to
// close and closes itself, so every delivery dials.
func TestTransportPerMessageDelivery(t *testing.T) {
	p := startRawPeer(t, plainReply(""))
	delivery := NewClient(ClientConfig{}).ForDelivery(DeliveryPerMessage)
	const n = 5
	for i := 0; i < n; i++ {
		deliverOK(t, delivery, p.epr())
	}
	p.awaitEnded(t, n)
	if got := p.accepts.Load(); got != n {
		t.Fatalf("%d per-message deliveries dialed %d connections", n, got)
	}
	for i := 0; i < n; i++ {
		if head := <-p.reqs; !bytes.Contains(head, []byte("\r\nConnection: close\r\n")) {
			t.Fatalf("per-message request head lacks Connection: close: %q", head)
		}
	}
}

// TestTransportStaleIdleConnection: a peer that closes every
// keep-alive connection once it has replied. The next exchange finds
// the pooled connection dead at checkout and dials, so Call and Deliver
// succeed on their first attempt and no request reaches the peer twice.
func TestTransportStaleIdleConnection(t *testing.T) {
	p := startRawPeer(t, func(w io.Writer, n int) bool {
		plainReply("")(w, n)
		return false
	})
	client := NewClient(ClientConfig{})
	delivery := client.ForDelivery(DeliveryPooled)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		callOK(t, client, p.epr())
		p.awaitEnded(t, 1)
		deliverOK(t, delivery, p.epr())
		p.awaitEnded(t, 1)
	}
	if n := p.requests.Load(); n != 2*rounds {
		t.Fatalf("peer saw %d requests for %d exchanges", n, 2*rounds)
	}
	if n := p.accepts.Load(); n != 2*rounds {
		t.Fatalf("%d exchanges on connections the peer closed dialed %d times", 2*rounds, n)
	}
}

// TestTransportChunkedAndCloseDelimited: a chunked reply leaves the
// connection reusable; a reply delimited by the peer's close does not.
func TestTransportChunkedAndCloseDelimited(t *testing.T) {
	t.Run("chunked", func(t *testing.T) {
		p := startRawPeer(t, func(w io.Writer, _ int) bool {
			half := len(okReply) / 2
			_, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n",
				half, okReply[:half], len(okReply)-half, okReply[half:])
			return err == nil
		})
		client := NewClient(ClientConfig{})
		callOK(t, client, p.epr())
		deliverOK(t, client.ForDelivery(DeliveryPooled), p.epr())
		if n := p.accepts.Load(); n != 1 {
			t.Fatalf("chunked replies: %d connections, want 1 reused", n)
		}
	})
	t.Run("close-delimited", func(t *testing.T) {
		p := startRawPeer(t, func(w io.Writer, _ int) bool {
			io.WriteString(w, "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n\r\n"+okReply)
			return false
		})
		client := NewClient(ClientConfig{})
		callOK(t, client, p.epr())
		deliverOK(t, client.ForDelivery(DeliveryPooled), p.epr())
		if n, m := p.accepts.Load(), p.requests.Load(); n != 2 || m != 2 {
			t.Fatalf("close-delimited replies: %d connections for %d requests, want 2 and 2", n, m)
		}
	})
}

func gzipped(t *testing.T, s string) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := io.WriteString(zw, s); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTransportGzipReplies: the request head advertises gzip, so a
// gzip-encoded reply is decoded, for a Call reply and a delivery's
// acknowledgement alike, and leaves the connection reusable.
func TestTransportGzipReplies(t *testing.T) {
	ack := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body><r:NotifyResponse xmlns:r="urn:echo"/></soap:Body></soap:Envelope>`
	replies := [][]byte{gzipped(t, okReply), gzipped(t, ack)}
	p := startRawPeer(t, func(w io.Writer, n int) bool {
		z := replies[(n-1)%2]
		_, err := io.WriteString(w, "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Encoding: gzip\r\nContent-Length: "+
			strconv.Itoa(len(z))+"\r\n\r\n"+string(z))
		return err == nil
	})
	client := NewClient(ClientConfig{})
	callOK(t, client, p.epr())
	deliverOK(t, client.ForDelivery(DeliveryPooled), p.epr())
	if n := p.accepts.Load(); n != 1 {
		t.Fatalf("gzip replies: %d connections, want 1 reused", n)
	}
}

// TestTransportConnectionCloseReplyNotPooled: a reply announcing
// Connection: close is not pooled even when the peer leaves the socket
// open; the client closes it.
func TestTransportConnectionCloseReplyNotPooled(t *testing.T) {
	p := startRawPeer(t, plainReply("Connection: close\r\n"))
	client := NewClient(ClientConfig{})
	callOK(t, client, p.epr())
	p.awaitEnded(t, 1) // the client, not the peer, closed it
	callOK(t, client, p.epr())
	if n := p.accepts.Load(); n != 2 {
		t.Fatalf("Connection: close replies: %d connections, want 2", n)
	}
}

// TestTransportHalfReadBodyNotReused: a body closed before EOF closes
// its connection.
func TestTransportHalfReadBodyNotReused(t *testing.T) {
	long := strings.Repeat("x", 64<<10)
	p := startRawPeer(t, func(w io.Writer, _ int) bool {
		_, err := io.WriteString(w, "HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(len(long))+"\r\n\r\n"+long)
		return err == nil
	})
	tr := newTransport(nil, defaultPoolSize)
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, "http://"+p.addr+"/consumer", strings.NewReader("ping"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.awaitEnded(t, 1)
	resp = post()
	if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != int64(len(long)) {
		t.Fatalf("second body: %d bytes, %v", n, err)
	}
	resp.Body.Close()
	if n := p.accepts.Load(); n != 2 {
		t.Fatalf("half-read body: %d connections, want 2", n)
	}
}

// TestTransportCancelDuringBodyRead: cancelling the exchange's context
// interrupts a body read blocked on a stalled peer, and the read fails
// with the context's error; the connection is not pooled.
func TestTransportCancelDuringBodyRead(t *testing.T) {
	p := startRawPeer(t, func(w io.Writer, _ int) bool {
		io.WriteString(w, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n<partial")
		return true // then stall: the rest never comes
	})
	tr := newTransport(nil, defaultPoolSize)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+p.addr+"/consumer", strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.AfterFunc(20*time.Millisecond, cancel)
	_, err = io.Copy(io.Discard, resp.Body)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("body read after cancel = %v, want context.Canceled", err)
	}
	resp.Body.Close()
	p.awaitEnded(t, 1)

	// Through the client, the same cancel fails the Call.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := NewClient(ClientConfig{}).CallContext(ctx, p.epr(), "urn:echo/Echo", echoBody); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call cancelled mid-body = %v, want context.Canceled", err)
	}
}

// TestTransportEndlessReplyHead: a peer streaming a head that never
// ends fails the exchange once the head passes maxHead, without
// the client's memory growing with what the peer sends.
func TestTransportEndlessReplyHead(t *testing.T) {
	lines := []byte(strings.Repeat("X-Pad: "+strings.Repeat("a", 1000)+"\r\n", 64))
	p := startRawPeer(t, func(w io.Writer, _ int) bool {
		if _, err := io.WriteString(w, "HTTP/1.1 200 OK\r\n"); err != nil {
			return false
		}
		for sent := 0; sent < 64*maxHead; sent += len(lines) {
			if _, err := w.Write(lines); err != nil {
				return false
			}
		}
		return false
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewClient(ClientConfig{}).Call(p.epr(), "urn:echo/Echo", echoBody)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), errReplyHeadTooLarge.Error()) {
		t.Fatalf("endless head = %v, want %q", err, errReplyHeadTooLarge)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*maxHead {
		t.Fatalf("endless head allocated %d bytes, want at most %d", grew, 16*maxHead)
	}
}

// TestTransportHTTPSReuseAndResumption: over HTTPS, pooled calls share
// one handshake, and each new connection of a per-message delivery
// resumes the session instead of paying a full handshake.
func TestTransportHTTPSReuseAndResumption(t *testing.T) {
	auth, sid, _ := pki(t)
	c := New(SecurityTLS)
	c.TLS = auth.ServerTLS(sid)
	c.Register(echoService())
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var handshakes, resumed atomic.Int32
	cfg := auth.ClientTLS()
	cfg.VerifyConnection = func(cs tls.ConnectionState) error {
		handshakes.Add(1)
		if cs.DidResume {
			resumed.Add(1)
		}
		return nil
	}
	client := NewClient(ClientConfig{Mode: SecurityTLS, TLS: cfg})
	body := xmlutil.NewText("urn:echo", "Echo", "tls")
	for i := 0; i < 3; i++ {
		if _, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", body); err != nil {
			t.Fatal(err)
		}
	}
	if n := handshakes.Load(); n != 1 {
		t.Fatalf("3 pooled HTTPS calls: %d handshakes, want 1", n)
	}
	// The first per-message delivery takes the pooled connection and
	// closes it; each later one dials.
	perMessage := client.ForDelivery(DeliveryPerMessage)
	for i := 0; i < 4; i++ {
		if err := perMessage.Deliver(context.Background(), c.EPR("/echo"), "urn:echo/Echo", nil, body); err != nil {
			t.Fatal(err)
		}
	}
	if n, r := handshakes.Load(), resumed.Load(); n != 4 || r != 3 {
		t.Fatalf("4 per-message HTTPS deliveries after pooled calls: %d handshakes, %d resumed; want 4 and 3", n, r)
	}
}
