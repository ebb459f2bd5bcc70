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

// completeKeepAlive reports whether reply starts with a whole reply to
// a POST, after any interim 1xx replies, that keeps the connection
// alive and whose body, decoded if gzipped, reads to EOF: the only
// replies after which the transport may pool the connection.
func completeKeepAlive(reply []byte) bool {
	br := bufio.NewReader(bytes.NewReader(reply))
	for {
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
		if err != nil || resp.StatusCode == http.StatusSwitchingProtocols {
			return false
		}
		if resp.StatusCode < 200 {
			continue
		}
		if resp.Close {
			return false
		}
		var body io.Reader = resp.Body
		if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
			zr, err := gzip.NewReader(body)
			if err != nil {
				return err == io.EOF // an empty encoded body
			}
			body = zr
		}
		_, err = io.Copy(io.Discard, body)
		return err == nil
	}
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

// FuzzTransportResponse serves fuzzed reply bytes to one exchange. The
// transport must not panic; it returns an error or a body the client's
// bounded reader reads; it pools the connection only after a complete
// keep-alive reply read to EOF, and closes it otherwise.
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		tr := newTransport(nil, 2)
		defer drainIdle(tr)
		sc := &scriptConn{r: bytes.NewReader(reply)}
		tr.dial = func(context.Context, string) (net.Conn, error) { return sc, nil }
		exchange := func() (pooled bool, read []byte, err error) {
			req, err := http.NewRequest(http.MethodPost, "http://peer.test/consumer", strings.NewReader("ping"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			if err == nil {
				var buf wireBuf
				err = buf.readFrom(resp.Body)
				if buf.Len() > maxRequestBody {
					t.Fatalf("body read %d bytes, past the %d bound", buf.Len(), maxRequestBody)
				}
				resp.Body.Close()
				read = buf.Bytes()
			}
			tr.mu.Lock()
			pooled = tr.idle[connKey{addr: "peer.test:80"}] != nil
			tr.mu.Unlock()
			return pooled, read, err
		}
		pooled, _, err := exchange()
		switch {
		case pooled && err != nil:
			t.Fatalf("connection pooled after a failed exchange: %v", err)
		case pooled && !completeKeepAlive(reply):
			t.Fatalf("connection pooled after an incomplete or closing reply %q", reply)
		case !pooled && !sc.closed:
			t.Fatalf("connection neither pooled nor closed after %q", reply)
		case pooled:
			// Whatever followed the reply is the next exchange's to read.
			exchange() //nolint:errcheck // it must only not panic
		}
	})
}
