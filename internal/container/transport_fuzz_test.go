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

	"altstacks/internal/obs"
	"altstacks/internal/wsa"
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
	return readReferenceFrom(bufio.NewReader(bytes.NewReader(reply)))
}

// readReferenceFrom is readReference reading the next reply from br.
func readReferenceFrom(br *bufio.Reader) (status int, body []byte, keepAlive bool, err error) {
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

// chunkedOK is a chunked reply up to its trailer.
const chunkedOK = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n"

// FuzzTransportResponse serves fuzzed reply bytes to one exchange
// through post, which every Client's exchange calls. The transport must
// not panic; it returns an error or a body the client's bounded reader
// reads; it pools the connection only after a complete keep-alive reply
// read to EOF, and closes it otherwise. It must agree with
// http.ReadResponse on failure, status and body bytes.
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
		// A field only the server acts on, and trailers read by the reader
		// heads are read with: a name with a space, which a reply's rule
		// admits, a malformed line, an obs-fold first line, and one that
		// ends in bare LFs, which net/http's double-CRLF rule refuses.
		"HTTP/1.1 200 OK\r\nHost: a\r\nHost: b\r\nContent-Length: 2\r\n\r\nok",
		chunkedOK + "X Y: z\r\n\r\n",
		chunkedOK + "Bad Line\r\n\r\n",
		chunkedOK + " folded: x\r\n\r\n",
		chunkedOK + "X: a\n\n",
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
		// run makes one exchange on a transport whose only connection
		// replies with the fuzzed bytes.
		run := func() outcome {
			tr := newTransport(nil, 2)
			defer drainIdle(tr)
			sc := &scriptConn{r: bytes.NewReader(reply)}
			tr.dial = func(context.Context, string) (net.Conn, error) { return sc, nil }
			exchange := func() (o outcome) {
				var body io.ReadCloser
				o.status, body, o.err = tr.post(context.Background(), dst, "urn:echo/Echo", []byte("ping"), false, false)
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
		post := run()
		// post reads the reply as http.ReadResponse does.
		status, body, _, err := readReference(reply)
		if (err == nil) != (post.err == nil) || err == nil && (status != post.status || !bytes.Equal(body, post.body)) {
			t.Fatalf("transport and http.ReadResponse disagree on %q:\nReadResponse: status %d, body %q, err %v\ntransport:    status %d, body %q, err %v",
				reply, status, body, err, post.status, post.body, post.err)
		}
	})
}

// FuzzPipelinedReplies serves fuzzed reply bytes to a pipelined run of
// one to four deliveries, on a transport whose only connection replies
// with those bytes. The transport must not panic. Reply by reply it
// must agree with http.ReadResponse on status, body and failure, up to
// the first reply that fails or does not keep the connection alive;
// every delivery after that fails. It pools the connection only after
// a run of complete keep-alive replies, and closes it otherwise.
func FuzzPipelinedReplies(f *testing.F) {
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	for _, seed := range []struct {
		n     uint8
		reply string
	}{
		{2, ok + ok},
		{3, ok + "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n" + ok},
		{2, "HTTP/1.1 100 Continue\r\n\r\n" + ok + "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 1\r\n\r\nx"},
		{3, ok + "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok" + ok},
		{2, ok + "HTTP/1.1 200 OK\r\n\r\nclose-delimited"},
		{4, ok + "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\ncut"},
		{1, ok + ok},
		{2, ok},
		{2, "HTTP/1.1 200 OK\r\nHost: a\r\nHost: b\r\nContent-Length: 2\r\n\r\nok" + ok},
		{2, chunkedOK + "Bad Line\r\n\r\n" + ok},
		{2, chunkedOK + " folded: x\r\n\r\n" + ok},
		{2, chunkedOK + "X: a\n\n" + ok},
	} {
		f.Add(seed.n, []byte(seed.reply))
	}
	dst, _ := parseAddress("http://peer.test/consumer")
	f.Fuzz(func(t *testing.T, n uint8, reply []byte) {
		runs := 1 + int(n%4)
		tr := newTransport(nil, 2)
		defer drainIdle(tr)
		sc := &scriptConn{r: bytes.NewReader(reply)}
		tr.dial = func(context.Context, string) (net.Conn, error) { return sc, nil }
		client := &Client{HTTP: &http.Client{Transport: tr}}
		type result struct {
			status int
			body   []byte
			err    error
		}
		got := make([]result, runs)
		// read sees each reply read whole, just before done reports it.
		var read *result
		client.pipeline(context.Background(), tr, 0, dst, "http://peer.test/consumer", 0, runs, func(int) Message {
			return Message{Ctx: context.Background(), To: wsa.NewEPR("http://peer.test/consumer"), Action: "urn:echo/Echo", Body: echoBody}
		}, func(resp []byte, status int, _ *obs.Span) error {
			if len(resp) > maxRequestBody {
				t.Fatalf("body read %d bytes, past the %d bound", len(resp), maxRequestBody)
			}
			read = &result{status: status, body: bytes.Clone(resp)}
			return nil
		}, func(i int, err error) {
			if read != nil {
				got[i], read = *read, nil
			}
			got[i].err = err
		})

		br := bufio.NewReader(bytes.NewReader(reply))
		complete := true
		for i, g := range got {
			if !complete {
				if g.err == nil {
					t.Fatalf("delivery %d succeeded after the run ended\nreply: %q", i, reply)
				}
				continue
			}
			status, body, keepAlive, err := readReferenceFrom(br)
			if (err == nil) != (g.err == nil) || err == nil && (status != g.status || !bytes.Equal(body, g.body)) {
				t.Fatalf("reply %d: transport and http.ReadResponse disagree on %q:\nReadResponse: status %d, body %q, err %v\ntransport:    status %d, body %q, err %v",
					i, reply, status, body, err, g.status, g.body, g.err)
			}
			complete = err == nil && keepAlive
		}
		tr.mu.Lock()
		pooled := tr.idle[connKey{addr: "peer.test:80"}] != nil
		tr.mu.Unlock()
		switch {
		case pooled && !complete:
			t.Fatalf("connection pooled after an incomplete run %q", reply)
		case !pooled && !sc.closed:
			t.Fatalf("connection neither pooled nor closed after %q", reply)
		}
	})
}
