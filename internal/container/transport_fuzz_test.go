package container

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scriptConn is a connection whose peer's bytes are fixed: reads drain
// them and then report EOF, writes are discarded.
type scriptConn struct {
	r      *bytes.Reader
	closed bool
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { c.closed = true; return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// readReference reads reply as net/http's client read it: the final
// reply after any interim 1xx replies, and its body, decoded if it is
// gzip-encoded. It returns the status and the body, whether the reply
// keeps the connection alive, and the error that ended the read early.
func readReference(reply []byte) (status int, body []byte, keepAlive bool, err error) {
	br := bufio.NewReader(bytes.NewReader(reply))
	for {
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
		if err != nil {
			return 0, nil, false, err
		}
		if resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols {
			continue
		}
		keepAlive = !resp.Close && resp.StatusCode != http.StatusSwitchingProtocols
		var r io.Reader = resp.Body
		if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
			zr, err := gzip.NewReader(r)
			if err != nil {
				if err == io.EOF { // an empty encoded body
					err = nil
				}
				return resp.StatusCode, nil, keepAlive, err
			}
			r = zr
		}
		body, err = io.ReadAll(r)
		return resp.StatusCode, body, keepAlive, err
	}
}

// completeKeepAlive reports whether reply starts with a whole reply to
// a POST, after any interim 1xx replies, that keeps the connection
// alive and whose body, decoded if gzipped, reads to EOF: the only
// replies after which the transport may pool the connection.
func completeKeepAlive(reply []byte) bool {
	_, _, keepAlive, err := readReference(reply)
	return err == nil && keepAlive
}

// drainIdle closes what tr pooled, so a fuzz run keeps no idle timers.
func drainIdle(tr *transport) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for key, pc := range tr.idle {
		for ; pc != nil; pc = pc.next {
			pc.idleTimer.Stop()
			pc.nc.Close()
		}
		delete(tr.idle, key)
	}
}

// FuzzTransportResponse serves fuzzed reply bytes to one exchange
// through each entry point: RoundTrip, which wrapped transports call,
// and post, which an unwrapped Client calls. The transport must not
// panic; it returns an error or a body the client's bounded reader
// reads; it pools the connection only after a complete keep-alive reply
// read to EOF, and closes it otherwise. Both entry points must agree on
// failure, status, body bytes and pooling, and agree with
// http.ReadResponse on the first three.
func FuzzTransportResponse(f *testing.F) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	io.WriteString(zw, okReply)
	zw.Close()
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nclose-delimited",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: " + strconv.Itoa(gz.Len()) + "\r\n\r\n" + gz.String(),
		"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\nnope",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\ntrunc",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nX: " + strings.Repeat("a", 5000),
		"",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Fold: a\r\n b\r\nTransfer-Encoding: chunked\r\nTrailer: content-length\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length : 2\nConnection: keep-alive, close\n\nok",
	} {
		f.Add([]byte(seed))
	}
	dst, _ := parseAddress("http://peer.test/consumer")
	f.Fuzz(func(t *testing.T, reply []byte) {
		type outcome struct {
			pooled bool
			status int
			body   []byte
			err    error
		}
		// run makes one exchange through the entry point on a transport
		// whose only connection replies with the fuzzed bytes.
		run := func(direct bool) outcome {
			tr := newTransport(nil, 2)
			defer drainIdle(tr)
			sc := &scriptConn{r: bytes.NewReader(reply)}
			tr.dial = func(context.Context, string) (net.Conn, error) { return sc, nil }
			exchange := func() (o outcome) {
				var body io.ReadCloser
				if direct {
					o.status, body, o.err = tr.post(context.Background(), dst, "urn:echo/Echo", []byte("ping"), false, false)
				} else {
					req, err := http.NewRequest(http.MethodPost, "http://peer.test/consumer", strings.NewReader("ping"))
					if err != nil {
						t.Fatal(err)
					}
					var resp *http.Response
					if resp, o.err = tr.RoundTrip(req); o.err == nil {
						o.status, body = resp.StatusCode, resp.Body
					}
				}
				if o.err == nil {
					var buf wireBuf
					o.err = buf.readFrom(body)
					if buf.Len() > maxRequestBody {
						t.Fatalf("body read %d bytes, past the %d bound", buf.Len(), maxRequestBody)
					}
					body.Close()
					o.body = buf.Bytes()
				}
				tr.mu.Lock()
				o.pooled = tr.idle[connKey{addr: "peer.test:80"}] != nil
				tr.mu.Unlock()
				return o
			}
			o := exchange()
			switch {
			case o.pooled && o.err != nil:
				t.Fatalf("connection pooled after a failed exchange: %v", o.err)
			case o.pooled && !completeKeepAlive(reply):
				t.Fatalf("connection pooled after an incomplete or closing reply %q", reply)
			case !o.pooled && !sc.closed:
				t.Fatalf("connection neither pooled nor closed after %q", reply)
			case o.pooled:
				// Whatever followed the reply is the next exchange's to read.
				exchange()
			}
			return o
		}
		rt, post := run(false), run(true)
		if (rt.err == nil) != (post.err == nil) || rt.status != post.status || !bytes.Equal(rt.body, post.body) || rt.pooled != post.pooled {
			t.Fatalf("entry points disagree on %q:\nRoundTrip: status %d, %d body bytes, pooled %v, err %v\npost:      status %d, %d body bytes, pooled %v, err %v",
				reply, rt.status, len(rt.body), rt.pooled, rt.err, post.status, len(post.body), post.pooled, post.err)
		}
		// And both read the reply as http.ReadResponse does.
		status, body, _, err := readReference(reply)
		if (err == nil) != (post.err == nil) || err == nil && (status != post.status || !bytes.Equal(body, post.body)) {
			t.Fatalf("transport and http.ReadResponse disagree on %q:\nReadResponse: status %d, body %q, err %v\ntransport:    status %d, body %q, err %v",
				reply, status, body, err, post.status, post.body, post.err)
		}
	})
}
