package container

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// inConn is an inbound connection whose peer's bytes are fixed: reads
// drain in, then, with filler set, an endless run of 'x' (one head line
// that never ends, or a body that never ends), and then report EOF.
// Writes are collected. The peer stops sending once the server closes
// its side for writing, or once it has sent more since the server last
// wrote than one request may take (a head at the cap, a body at the
// bound, and a read buffer each), which over marks.
type inConn struct {
	in              *bytes.Reader
	filler          bool
	out             bytes.Buffer
	sinceWrite      int
	over, writeDone bool
}

var fillerBlock = bytes.Repeat([]byte{'x'}, 32<<10)

// readBudget is what the server may read between two of its writes.
const readBudget = maxHead + maxRequestBody + 2*maxRunBytes

func (c *inConn) Read(p []byte) (int, error) {
	if c.writeDone {
		return 0, io.EOF
	}
	n, err := c.in.Read(p)
	if err == io.EOF && c.filler {
		n, err = copy(p, fillerBlock), nil
	}
	if c.sinceWrite += n; c.sinceWrite > readBudget {
		c.over = true
		return 0, io.EOF
	}
	return n, err
}

func (c *inConn) Write(p []byte) (int, error) {
	c.sinceWrite = 0
	return c.out.Write(p)
}

func (c *inConn) CloseWrite() error                { c.writeDone = true; return nil }
func (c *inConn) Close() error                     { return nil }
func (c *inConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *inConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *inConn) SetDeadline(time.Time) error      { return nil }
func (c *inConn) SetReadDeadline(time.Time) error  { return nil }
func (c *inConn) SetWriteDeadline(time.Time) error { return nil }

// wantReplies reads in as the server must: requests as http.ReadRequest
// reads them, of which HTTP/1.0 and Connection: close end the
// connection, and a malformed head, a field name that is not a token
// (which ReadRequest passes and net/http's server rejected), a
// Transfer-Encoding or a version other than HTTP/1.x is rejected. It returns the methods of the complete
// requests, each owed one reply, and whether a rejection must follow
// them (reject) or may (maybe): when a head fails on its last line
// with no line ending after it, the server, which needs the ending,
// sees the peer leave mid-head instead. A request whose body in cuts
// short leaves its Content-Length in pending.
func wantReplies(in []byte) (methods []string, reject, maybe bool, pending int64) {
	br := bufio.NewReader(bytes.NewReader(in))
	for {
		if _, err := br.Peek(1); err != nil {
			return methods, false, false, 0
		}
		req, err := http.ReadRequest(br)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			return methods, false, false, 0
		case err != nil:
			atEnd := br.Buffered() == 0 && !bytes.HasSuffix(in, []byte{'\n'})
			return methods, !atEnd, atEnd, 0
		case req.ProtoMajor != 1 || req.TransferEncoding != nil:
			return methods, true, false, 0
		}
		for k := range req.Header {
			if !validFieldName(k) {
				return methods, true, false, 0
			}
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods, false, false, req.ContentLength
		}
		methods = append(methods, req.Method)
		if req.Close || req.ProtoMinor == 0 {
			return methods, false, false, 0
		}
	}
}

// isRejection reports whether resp is the server's reply to a request
// it could not read: plain text, delimited by the close that follows.
func isRejection(resp *http.Response) bool {
	return resp.ContentLength == -1 && resp.Close && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain")
}

// FuzzServeConn feeds fuzzed inbound bytes through one connection's
// serving loop. The loop must not panic. Over the bytes alone, it must
// answer each complete request with one well-formed HTTP/1.1 reply, in
// order, reject a head it cannot act on with one reply that closes the
// connection, and write nothing else. Over the bytes followed by an endless stream, it must never read
// more between two writes than one request head at the cap and one body
// at the bound. That half runs on a container with no services, whose
// 404s parse no body, and skips an input that leaves a body of over
// maxHead unread, which would make each run stream up to 16 MiB:
// TestBodyBound reads one to the bound instead.
func FuzzServeConn(f *testing.F) {
	req := echoRequest("urn:echo/Echo", "hello")
	for _, seed := range []string{
		rawPostText("/echo", "", req),
		rawPostText("/echo", "", req) + rawPostText("/echo?q=1", "Connection: keep-alive\r\n", req),
		rawPostText("/echo", "Connection: close\r\n", req) + rawPostText("/echo", "", req),
		rawPostText("/missing", "", req),
		rawPostText("/%65cho", "", req),
		rawPostText("http://golden/echo", "Host: a\r\n", req),
		"GET /echo HTTP/1.1\r\nHost: x\r\n\r\nHEAD /echo HTTP/1.1\r\n\r\n",
		"POST /echo HTTP/1.0\r\nContent-Length: 4\r\n\r\n<a/>",
		"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n<a/>\r\n0\r\n\r\n",
		"POST /echo HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n<a/>x",
		"POST /echo HTTP/1.1\r\nContent-Length:\r\n 4\r\nX: a\r\n\tb\r\n\r\n<a/>",
		"POST /echo HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n<a>",
		"POST /echo HTTP/1.1\r\nHost: a\r\nhost: b\r\n\r\n",
		"POST /echo HTTP/2.0\r\n\r\n",
		"POST /echo HTTP/1.1\r\nBad Name: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nX: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 0\r\n\r\n",
		"POST /echo HTTP/1.1\nContent-Length: 4\n\n<a/>",
		"POST /echo",
		"",
	} {
		f.Add([]byte(seed))
	}
	c, bare := New(SecurityNone), New(SecurityNone)
	c.Register(echoService())
	f.Fuzz(func(t *testing.T, in []byte) {
		conn := &inConn{in: bytes.NewReader(in)}
		c.serveConn(conn)
		methods, reject, maybe, pending := wantReplies(in)
		br := bufio.NewReader(&conn.out)
		next := func(method string) *http.Response {
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("reply to %s: %v\nin:  %q\nout: %q", method, err, in, conn.out.Bytes())
			}
			if resp.ProtoMajor != 1 || resp.ProtoMinor != 1 {
				t.Fatalf("reply in %s\nin: %q", resp.Proto, in)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("reply body: %v\nin: %q", err, in)
			}
			return resp
		}
		for i, m := range methods {
			if resp := next(m); isRejection(resp) {
				t.Fatalf("complete request %d rejected with %d\nin: %q", i+1, resp.StatusCode, in)
			}
		}
		if reject || maybe && br.Buffered() > 0 {
			if resp := next(http.MethodPost); !isRejection(resp) {
				t.Fatalf("unreadable request answered with %d\nin: %q", resp.StatusCode, in)
			}
		}
		if br.Buffered() > 0 {
			t.Fatalf("more replies than requests\nin:  %q\nout: %q", in, conn.out.Bytes())
		}

		if pending > maxHead {
			return
		}
		endless := &inConn{in: bytes.NewReader(in), filler: true}
		bare.serveConn(endless)
		if endless.over {
			t.Fatalf("read over %d bytes between writes\nin: %q", readBudget, in)
		}
	})
}

// TestBodyBound: a request that declares a body past maxRequestBody and
// sends it without end is read to the bound, not past it, and answered
// with a reply that closes the connection.
func TestBodyBound(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	conn := &inConn{in: bytes.NewReader([]byte("POST /echo HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n<a>")), filler: true}
	c.serveConn(conn)
	if conn.over {
		t.Fatalf("read over %d bytes between writes", readBudget)
	}
	resp, err := http.ReadResponse(bufio.NewReader(&conn.out), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK || !resp.Close || !conn.writeDone {
		t.Fatalf("reply %d, Connection: close %v, write side closed %v; want a fault that closes", resp.StatusCode, resp.Close, conn.writeDone)
	}
}

var statusLine = regexp.MustCompile(`HTTP/1\.1 (\d{3}) `)

// TestServeConnReplies pins the replies to a few requests FuzzServeConn
// starts from: pipelining with a query, an escaped path, GET and HEAD, a folded Content-Length (a fault, not a
// rejection: the fold joins to a valid length), a repeated Host and an
// unsupported Transfer-Encoding.
func TestServeConnReplies(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	req := echoRequest("urn:echo/Echo", "hello")
	for in, want := range map[string]string{
		rawPostText("/echo", "", req) + rawPostText("/echo?q=1", "", req): "200 200",
		rawPostText("/%65cho", "", req):                                   "200",
		"GET /echo HTTP/1.1\r\n\r\nHEAD /missing HTTP/1.1\r\n\r\n":        "405 404",
		"POST /echo HTTP/1.1\r\nContent-Length:\r\n 4\r\n\r\n<a/>":        "500",
		"POST /echo HTTP/1.1\r\nHost: a\r\nhost: b\r\n\r\n":               "400",
		"POST /echo HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n":          "501",
	} {
		conn := &inConn{in: bytes.NewReader([]byte(in))}
		c.serveConn(conn)
		var got []string
		for _, m := range statusLine.FindAllStringSubmatch(conn.out.String(), -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%q: replies %v, want %s", in, got, want)
		}
	}
}
