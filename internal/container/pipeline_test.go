package container

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// A raw-socket sink's answer to one request.
type answer int

const (
	answerAck     answer = iota // a plain acknowledgement
	answerClose                 // an acknowledgement that says Connection: close, then a close
	answerFault                 // a SOAP fault
	answerCut                   // half an acknowledgement, then a close
	answerHangUp                // a close, with no reply
	answerSilence               // no reply, ever
)

var faultReply = func() string {
	env := soap.New(nil)
	env.Fault = soap.Faultf(soap.FaultClient, "sink refused it")
	return string(env.Marshal())
}()

// play writes a's reply and reports whether the connection stays open.
// answerSilence waits for stop.
func (a answer) play(w io.Writer, stop <-chan struct{}) bool {
	head := func(status, extra string, n int) string {
		return "HTTP/1.1 " + status + "\r\nContent-Type: text/xml; charset=utf-8\r\n" + extra +
			"Content-Length: " + strconv.Itoa(n) + "\r\n\r\n"
	}
	switch a {
	case answerAck:
		return plainReply("")(w, 0)
	case answerClose:
		plainReply("Connection: close\r\n")(w, 0)
	case answerFault:
		_, err := io.WriteString(w, head("500 Internal Server Error", "", len(faultReply))+faultReply)
		return err == nil
	case answerCut:
		io.WriteString(w, head("200 OK", "", len(okReply))+okReply[:len(okReply)/2])
	case answerSilence:
		<-stop
	}
	return false
}

// ends reports whether the sink answers nothing after a.
func (a answer) ends() bool { return a != answerAck && a != answerFault }

// startSink runs a raw-socket sink that answers the nth request it
// reads (1-based, over every connection) with script[n-1], or with an
// acknowledgement past the script's end.
func startSink(t *testing.T, script ...answer) *rawPeer {
	stop := make(chan struct{})
	p := startRawPeer(t, func(w io.Writer, n int) bool {
		a := answerAck
		if n <= len(script) {
			a = script[n-1]
		}
		return a.play(w, stop)
	})
	t.Cleanup(func() { close(stop) })
	return p
}

var messageIDPattern = regexp.MustCompile(`<wsa:MessageID>([^<]+)</wsa:MessageID>`)

// distinctRequests drains the requests p has read, checks that none
// came twice, and counts them.
func distinctRequests(t *testing.T, p *rawPeer) int {
	t.Helper()
	seen := map[string]bool{}
	for {
		select {
		case req := <-p.reqs:
			m := messageIDPattern.FindSubmatch(req)
			if m == nil {
				t.Fatalf("request without a MessageID: %q", req)
			}
			if seen[string(m[1])] {
				t.Fatalf("request %s written twice", m[1])
			}
			seen[string(m[1])] = true
		default:
			return len(seen)
		}
	}
}

// deliverEach delivers n messages to epr through DeliverEach, and
// returns each one's outcome.
func deliverEach(c *Client, epr wsa.EPR, n int) []error {
	errs := make([]error, n)
	c.DeliverEach(context.Background(), n, func(i int) Message {
		return Message{Ctx: context.Background(), To: epr, Action: "urn:echo/Echo",
			Body: xmlutil.NewText("urn:echo", "Echo", strconv.Itoa(i))}
	}, func(i int, err error) { errs[i] = err })
	return errs
}

// outcome is an error as text, the sink's address masked.
func outcome(err error, p *rawPeer) string {
	if err == nil {
		return "ok"
	}
	return strings.ReplaceAll(err.Error(), p.addr, "SINK")
}

// TestPipelinedDeliveryOutcomes drives DeliverEach's pipelined run
// against raw-socket sinks. Each message's outcome must be what a
// separate Deliver reports against a sink that answers it the same
// way: messages behind an answer that ends the connection get no reply,
// from a sink that hung up or, behind silence, from one that stays
// silent. No request is written twice, every delivery counts one
// connection dial or reuse, and a silent sink costs one timeout for the
// whole run.
func TestPipelinedDeliveryOutcomes(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	const n, timeout = 5, 150 * time.Millisecond
	for _, tc := range []struct {
		name   string
		script []answer
		// stale first delivers one message alone, after which the sink
		// hangs up on the pooled connection.
		stale bool
	}{
		{name: "all acknowledged", script: []answer{answerAck, answerAck, answerAck, answerAck, answerAck}},
		{name: "message 3 faults", script: []answer{answerAck, answerAck, answerFault, answerAck, answerAck}},
		{name: "close after 2", script: []answer{answerAck, answerClose}},
		{name: "close mid-reply 3", script: []answer{answerAck, answerAck, answerCut}},
		{name: "never answers", script: []answer{answerSilence}},
		{name: "stale pooled connection", stale: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled).WithTimeout(timeout)
			var p *rawPeer
			deliveries := n
			if !tc.stale {
				p = startSink(t, tc.script...)
			} else {
				// The sink acknowledges the lone message and hangs up; the
				// run that follows finds the pooled connection gone at
				// checkout, dials, and loses nothing.
				p = startRawPeer(t, func(w io.Writer, n int) bool { return plainReply("")(w, n) && n > 1 })
				if err := client.Deliver(context.Background(), p.epr(), "urn:echo/Echo", nil, echoBody); err != nil {
					t.Fatal(err)
				}
				p.awaitEnded(t, 1)
				deliveries++
			}
			conns := func() int64 { return obs.DeliveryConnsDialed.Value() + obs.DeliveryConnsReused.Value() }
			before := conns()
			start := time.Now()
			errs := deliverEach(client, p.epr(), n)
			took, counted := time.Since(start), conns()-before

			// What each message faced, and what a Deliver of its own
			// reports against a sink that answers it so.
			faced := make([]answer, n)
			if !tc.stale {
				ended := false
				for i := range faced {
					switch {
					case i < len(tc.script) && !ended:
						faced[i] = tc.script[i]
						ended = tc.script[i].ends()
					case ended && tc.script[len(tc.script)-1] == answerSilence:
						faced[i] = answerSilence
					case ended:
						faced[i] = answerHangUp
					}
				}
			}
			for i, a := range faced {
				q := startSink(t, a)
				want := client.Deliver(context.Background(), q.epr(), "urn:echo/Echo", nil, echoBody)
				if got, want := outcome(errs[i], p), outcome(want, q); got != want {
					t.Errorf("message %d (%v): pipelined %q, alone %q", i, a, got, want)
				}
			}
			if got := distinctRequests(t, p); got > deliveries {
				t.Errorf("sink read %d requests for %d deliveries", got, deliveries)
			}
			if counted != n {
				t.Errorf("%d deliveries counted %d connection dials and reuses", n, counted)
			}
			if faced[0] == answerSilence && took > 3*timeout {
				t.Errorf("a silent sink held the run %v, past one %v timeout", took, timeout)
			}
		})
	}
}

// TestPipelinedRunsOnOneConnection: a run's requests share one write and
// one connection, which is pooled again for the next run; DeliverEach
// splits a run once it would pass maxRunBytes, and sends messages to
// different addresses on connections of their own.
func TestPipelinedRunsOnOneConnection(t *testing.T) {
	p, q := startSink(t), startSink(t)
	client := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled)
	for _, err := range deliverEach(client, p.epr(), maxRun) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range deliverEach(client, p.epr(), 3) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if a := p.accepts.Load(); a != 1 {
		t.Fatalf("two runs dialed %d connections, want 1", a)
	}
	if got := distinctRequests(t, p); got != maxRun+3 {
		t.Fatalf("sink read %d requests, want %d", got, maxRun+3)
	}

	// A body of a third of maxRunBytes: three requests pass the bound,
	// so five go out in runs of two, two and one, all on one connection.
	big := xmlutil.NewText("urn:echo", "Echo", strings.Repeat("x", maxRunBytes/3))
	errs := make([]error, 7)
	client.DeliverEach(context.Background(), len(errs), func(i int) Message {
		to := p.epr()
		if i == 5 || i == 6 {
			to = q.epr()
		}
		return Message{Ctx: context.Background(), To: to, Action: "urn:echo/Echo", Body: big}
	}, func(i int, err error) { errs[i] = err })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if got, got2 := distinctRequests(t, p), distinctRequests(t, q); got != 5 || got2 != 2 {
		t.Fatalf("sinks read %d and %d requests, want 5 and 2", got, got2)
	}
	if a, b := p.accepts.Load(), q.accepts.Load(); a != 1 || b != 1 {
		t.Fatalf("sinks accepted %d and %d connections, want 1 each", a, b)
	}
}

// countingConn counts the server's writes on an inConn.
type countingConn struct {
	*inConn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.inConn.Write(p)
}

var dateField = regexp.MustCompile(`\r\nDate: [^\r]*\r\n`)

// TestServerAnswersPipelinedRequestsTogether: 32 pipelined requests on
// one connection get the replies they get one per connection, byte for
// byte but the Date and each reply's fresh MessageID. The run arrives
// in one read, after the byte the idle connection waits for, and is
// answered in one write.
func TestServerAnswersPipelinedRequestsTogether(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	var in, alone bytes.Buffer
	for i := 0; i < maxRun; i++ {
		req := rawPostText("/echo", "", echoRequest("urn:echo/Echo", fmt.Sprintf("message %d", i)))
		in.WriteString(req)
		conn := &inConn{in: bytes.NewReader([]byte(req))}
		c.serveConn(conn)
		alone.Write(conn.out.Bytes())
	}
	conn := &countingConn{inConn: &inConn{in: bytes.NewReader(in.Bytes())}}
	c.serveConn(conn)
	mask := func(b []byte) []byte {
		return messageIDPattern.ReplaceAll(dateField.ReplaceAll(b, []byte("\r\nDate: <masked>\r\n")), []byte("<wsa:MessageID/>"))
	}
	got, want := mask(conn.out.Bytes()), mask(alone.Bytes())
	if !bytes.Equal(got, want) {
		t.Fatalf("pipelined replies differ from replies one per connection:\n got %q\nwant %q", got, want)
	}
	if conn.writes != 1 {
		t.Fatalf("%d pipelined requests answered in %d writes, want 1", maxRun, conn.writes)
	}
	// Every reply parses in turn, as a pipelining client reads them.
	br := bufio.NewReader(bytes.NewReader(conn.out.Bytes()))
	for i := 0; i < maxRun; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(fmt.Sprintf(">message %d<", i))) {
			t.Fatalf("reply %d: %d %q", i, resp.StatusCode, body)
		}
	}
}

// recordConn records what a client reads on its connection: the
// replies, after any TLS.
type recordConn struct {
	net.Conn
	got *bytes.Buffer
}

func (c recordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

var uuidPattern = regexp.MustCompile(`urn:uuid:[0-9a-f-]+`)

// TestPipelinedRunOverHTTPS: a pooled delivery client's pipelined run
// to a SecurityTLS container gets, on one connection, the replies the
// same run gets over plain HTTP, byte for byte but the Date and the
// message identifiers (each reply's MessageID and RelatesTo).
func TestPipelinedRunOverHTTPS(t *testing.T) {
	auth, sid, _ := pki(t)
	replies := func(c *Container, cfg ClientConfig) []byte {
		t.Helper()
		c.Register(echoService())
		if _, err := c.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		var got bytes.Buffer
		dials := 0
		client := NewClient(cfg).WrapConns(func(nc net.Conn) net.Conn {
			dials++
			return recordConn{nc, &got}
		}).ForDelivery(DeliveryPooled)
		for i, err := range deliverEach(client, c.EPR("/echo"), maxRun) {
			if err != nil {
				t.Fatalf("%s delivery %d: %v", c.BaseURL(), i, err)
			}
		}
		if dials != 1 {
			t.Fatalf("%s: a run of %d took %d connections, want 1", c.BaseURL(), maxRun, dials)
		}
		return uuidPattern.ReplaceAll(dateField.ReplaceAll(got.Bytes(), []byte("\r\nDate: <masked>\r\n")), []byte("urn:uuid:<masked>"))
	}
	plain := replies(New(SecurityNone), ClientConfig{})
	tc := New(SecurityTLS)
	tc.TLS = auth.ServerTLS(sid)
	secure := replies(tc, ClientConfig{Mode: SecurityTLS, TLS: auth.ClientTLS()})
	if !bytes.Equal(secure, plain) {
		t.Fatalf("replies over HTTPS differ from plain HTTP:\n got %q\nwant %q", secure, plain)
	}
	if n := bytes.Count(plain, []byte("HTTP/1.1 200 OK")); n != maxRun {
		t.Fatalf("%d replies to a run of %d", n, maxRun)
	}
}
