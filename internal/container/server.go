package container

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// server is the container's HTTP/1.1 server, the inbound twin of
// transport.go. An accept loop hands each connection to one goroutine,
// which serves the connection's requests in turn: it reads the request
// head from a pooled bufio.Reader, keeping only the request line and
// the fields the container acts on (Content-Length, Connection,
// Transfer-Encoding, Host), reads the body into a pooled buffer, runs
// the request through the container's pipeline and, once that has
// returned, writes the reply's head and body in one write, as net/http
// flushed a handler's buffered reply. A request builds no header map
// and starts no goroutine, and no reader watches the socket while a
// handler runs: a client that hangs up mid-request is noticed when its
// reply is written.
//
// The replies are byte for byte the ones net/http's server wrote
// (testdata/*-head.txt, *-reply.txt), and so are its limits: a request
// head of at most maxHead bytes read within headTimeout of its first
// byte, a TLS handshake within headTimeout, and silence about failed
// handshakes. It reads Content-Length bodies only; a request with a
// Transfer-Encoding gets a 501.
type server struct {
	// ctx is every request's context; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // live connections
	closed bool
	// wg counts the accept loop and the connection loops.
	wg sync.WaitGroup
}

const (
	// headTimeout bounds a request head's read from its first byte, and
	// a TLS handshake.
	headTimeout = 10 * time.Second
	// lingerTime bounds the read that discards what a peer still sends
	// after a reply that leaves its request partly unread.
	lingerTime = 500 * time.Millisecond
)

// Replies to a request the server cannot read, after which the
// connection closes: net/http's, text for text.
const (
	errorHeaders      = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	rejectBadRequest  = "HTTP/1.1 400 Bad Request" + errorHeaders + "400 Bad Request"
	rejectHeadTooBig  = "HTTP/1.1 431 Request Header Fields Too Large" + errorHeaders + "431 Request Header Fields Too Large"
	rejectTE          = "HTTP/1.1 501 Not Implemented" + errorHeaders + "Unsupported transfer encoding"
	rejectVersion     = "HTTP/1.1 505 HTTP Version Not Supported: unsupported protocol version" + errorHeaders + "505 HTTP Version Not Supported: unsupported protocol version"
	contentTypeXML    = "\r\nContent-Type: text/xml; charset=utf-8"
	contentTypePlain  = "\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff"
	connectionClose   = "\r\nConnection: close"
	headerDate        = "\r\nDate: "
	headerContentSize = "\r\nContent-Length: "
)

var (
	errRequestHeadTooLarge = fmt.Errorf("request head exceeds %d bytes", maxHead)
	notFoundText           = []byte("404 page not found\n")
	postOnlyText           = []byte("SOAP endpoints accept POST only\n")
)

// serve starts the accept loop on ln.
func (c *Container) serve(ln net.Listener) {
	s := &c.srv
	s.mu.Lock()
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go c.accept(ln)
}

// accept hands each inbound connection to a goroutine of its own until
// Close closes the listener.
func (c *Container) accept(ln net.Listener) {
	defer c.srv.wg.Done()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors, say: retry after a pause, as net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !c.srv.track(nc) {
			nc.Close()
			return
		}
		go func() {
			defer c.srv.untrack(nc)
			c.serveConn(nc)
		}()
	}
}

// track registers a live connection, unless the server has closed.
func (s *server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.wg.Done()
}

// close cancels every request's context, closes the listener and every
// connection, and waits for the accept loop and the connection loops to
// return.
func (s *server) close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	ln, conns := s.ln, s.conns
	s.ln, s.conns = nil, nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
}

// serveConn serves nc's requests in turn until the peer leaves, asks to
// close, or sends a request the server cannot read, and closes nc.
func (c *Container) serveConn(nc net.Conn) {
	defer nc.Close()
	// A panicking handler loses its connection and nothing else, as under
	// net/http, whose panic log the container discarded.
	defer func() { recover() }()
	if tc, ok := nc.(*tls.Conn); ok && handshake(c.srv.ctx, tc) != nil {
		return // failed handshakes stay silent
	}
	sc := &srvConn{c: c, nc: nc, br: readers.Get().(*bufio.Reader)}
	sc.br.Reset(nc)
	defer func() {
		sc.br.Reset(nil)
		readers.Put(sc.br)
	}()
	for sc.serveOne() {
	}
}

// handshake runs the TLS handshake within headTimeout.
func handshake(ctx context.Context, tc *tls.Conn) error {
	if err := tc.SetDeadline(time.Now().Add(headTimeout)); err != nil {
		return err
	}
	if err := tc.HandshakeContext(ctx); err != nil {
		return err
	}
	return tc.SetDeadline(time.Time{})
}

// srvConn is one inbound connection, owned by its serving goroutine.
type srvConn struct {
	c  *Container
	nc net.Conn // TLS-wrapped for https
	br *bufio.Reader
	// left is what the head being read may still take.
	left int
	// val holds the value of the head field being read, when the
	// server acts on it, until the next line shows whether the value
	// continues (obs-fold); cl holds the request's first Content-Length.
	val, cl []byte

	// The request being served.
	path   []byte
	post   bool
	noBody bool  // a HEAD request, whose replies carry no body
	length int64 // Content-Length
	close  bool  // the connection closes after the reply
	linger bool  // part of the request stays unread: see hangUp
	// wire is the reply, head and body, that serveOne writes.
	wire []byte
}

// serveOne reads one request and answers it, and reports whether the
// connection stays open for the next.
func (sc *srvConn) serveOne() bool {
	reject, err := sc.readHead()
	switch {
	case err == errRequestHeadTooLarge:
		// The peer may still be sending the head.
		if sc.send([]byte(rejectHeadTooBig)) {
			sc.hangUp()
		}
		return false
	case err != nil:
		return false // the peer left, or stalled mid-head
	case reject != "":
		sc.send([]byte(reject))
		return false
	}
	n := min(sc.length, maxRequestBody)
	if n < sc.length {
		sc.close, sc.linger = true, true
	}
	buf := bodyPool.Get().(*wireBuf)
	buf.Reset()
	defer buf.release()
	if err := buf.readN(sc.br, n); err != nil || int64(buf.Len()) < n {
		return false
	}
	sc.c.serveHTTP(sc, sc.path, sc.post, buf.Bytes())
	sent := sc.send(sc.wire)
	if cap(sc.wire) > maxPooledBody {
		sc.wire = nil
	}
	switch {
	case !sent:
		return false
	case sc.close:
		if sc.linger {
			sc.hangUp()
		}
		return false
	}
	return true
}

// readHead reads a request head into sc. A non-empty reject is the
// reply to a head the server cannot act on; an error means the peer
// left or stalled, or the head passed maxHead.
func (sc *srvConn) readHead() (reject string, err error) {
	if _, err := sc.br.Peek(1); err != nil {
		return "", err
	}
	// The head must arrive within headTimeout of its first byte.
	if err := sc.nc.SetReadDeadline(time.Now().Add(headTimeout)); err != nil {
		return "", err
	}
	if reject, err = sc.parseHead(); err != nil {
		return "", err
	}
	return reject, sc.nc.SetReadDeadline(time.Time{})
}

// Head fields the server or the transport acts on.
const (
	fieldOther = iota
	fieldContentLength
	fieldTransferEncoding
	fieldConnection
	fieldHost
	fieldContentEncoding
	fieldTrailer
)

// headState is what a head's fields say, once read.
type headState struct {
	hosts            int
	haveLength, bad  bool
	chunked, connEnd bool
}

// parseHead reads the request line and the head fields, judging them as
// net/http did: the request line as soon as it is read, each field line
// as it is read, and what the fields say once the head has ended.
func (sc *srvConn) parseHead() (string, error) {
	sc.left = maxHead
	line, err := readLine(sc.br, &sc.left, errRequestHeadTooLarge)
	if err != nil {
		return "", err
	}
	major, minor, ok := sc.requestLine(line)
	if !ok {
		return rejectBadRequest, nil
	}
	var h headState
	field := fieldOther
	for first := true; ; first = false {
		line, err := readLine(sc.br, &sc.left, errRequestHeadTooLarge)
		if err != nil {
			return "", err
		}
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			// A continuation line (obs-fold) extends the previous field.
			v := trimOWS(line)
			if first || !validFieldValue(v) {
				return rejectBadRequest, nil
			}
			if field != fieldOther {
				sc.val = append(append(sc.val, ' '), v...)
			}
			continue
		}
		sc.apply(&h, field)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok || !validFieldName(name) || !validFieldValue(value) {
			return rejectBadRequest, nil
		}
		if field = fieldOf(name); field != fieldOther {
			sc.val = append(sc.val[:0], trimOWS(value)...)
		}
	}
	switch {
	case h.hosts > 1:
		return rejectBadRequest, nil
	case h.chunked && (major > 1 || minor > 0):
		return rejectTE, nil
	case h.bad:
		return rejectBadRequest, nil
	}
	sc.length = 0
	if h.haveLength {
		n, err := strconv.ParseUint(string(sc.cl), 10, 63)
		if err != nil {
			return rejectBadRequest, nil
		}
		sc.length = int64(n)
	}
	if major != 1 {
		return rejectVersion, nil
	}
	sc.close = h.connEnd || minor == 0
	sc.linger = false
	return "", nil
}

// apply records what the field just read says.
func (sc *srvConn) apply(h *headState, field int) {
	switch field {
	case fieldContentLength:
		v := trimOWS(sc.val)
		if !h.haveLength {
			sc.cl = append(sc.cl[:0], v...)
			h.haveLength = true
		} else if !bytes.Equal(v, sc.cl) {
			h.bad = true // differing lengths: a smuggling attempt
		}
	case fieldTransferEncoding:
		h.chunked = true
	case fieldConnection:
		h.connEnd = h.connEnd || hasToken(sc.val, "close")
	case fieldHost:
		h.hosts++
	}
}

// requestLine parses "METHOD target HTTP/x.y" into sc's method and
// path: a plain origin-form target is used as it is, up to any query;
// anything else goes through url.ParseRequestURI, as net/http read it.
func (sc *srvConn) requestLine(line []byte) (major, minor int, ok bool) {
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || !validFieldName(method) {
		return 0, 0, false
	}
	if major, minor, ok = parseVersion(proto); !ok {
		return 0, 0, false
	}
	sc.post = string(method) == http.MethodPost
	sc.noBody = string(method) == http.MethodHead
	if plainTarget(target) {
		if q := bytes.IndexByte(target, '?'); q >= 0 {
			target = target[:q]
		}
		sc.path = append(sc.path[:0], target...)
		return major, minor, true
	}
	raw := string(target)
	if string(method) == http.MethodConnect && !strings.HasPrefix(raw, "/") {
		raw = "http://" + raw // an authority-form target
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return 0, 0, false
	}
	sc.path = append(sc.path[:0], u.Path...)
	return major, minor, true
}

// plainTarget reports whether target is an origin-form target that
// needs no unescaping or validation beyond its bytes.
func plainTarget(target []byte) bool {
	if len(target) == 0 || target[0] != '/' {
		return false
	}
	for _, c := range target {
		if c == '%' || c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// parseVersion parses "HTTP/x.y" for single digits x and y.
func parseVersion(p []byte) (major, minor int, ok bool) {
	if len(p) != len("HTTP/x.y") || string(p[:5]) != "HTTP/" || p[6] != '.' || !isDigit(p[5]) || !isDigit(p[7]) {
		return 0, 0, false
	}
	return int(p[5] - '0'), int(p[7] - '0'), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// fieldOf names the head field the server or the transport acts on, or
// fieldOther.
func fieldOf(name []byte) int {
	switch {
	case fieldIs(name, "content-length"):
		return fieldContentLength
	case fieldIs(name, "transfer-encoding"):
		return fieldTransferEncoding
	case fieldIs(name, "connection"):
		return fieldConnection
	case fieldIs(name, "host"):
		return fieldHost
	case fieldIs(name, "content-encoding"):
		return fieldContentEncoding
	case fieldIs(name, "trailer"):
		return fieldTrailer
	}
	return fieldOther
}

// fieldIs reports whether name is the lower-case key, ignoring ASCII
// case.
func fieldIs(name []byte, key string) bool {
	if len(name) != len(key) {
		return false
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds the
// lower-case token, ignoring ASCII case only, as net/http matched it.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, []byte{','})
		if fieldIs(trimOWS(t), token) {
			return true
		}
	}
	return false
}

// trimOWS trims the spaces and tabs around a field value.
func trimOWS(v []byte) []byte { return bytes.Trim(v, " \t") }

// readLine returns the next head line from br without its line ending,
// charging it to the head's allowance, *left: a line that overdraws it
// fails with tooLarge. The line aliases br's buffer, unless it is longer
// than the buffer, and is valid until the next read.
func readLine(br *bufio.Reader, left *int, tooLarge error) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= *left {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if *left -= len(line); *left < 0 {
		return nil, tooLarge
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// reply makes the reply serveOne writes, head and body, with the fields
// in the order net/http's server wrote them: a SOAP message's
// Content-Length and Content-Type, or a plain-text reply's Content-Type
// and X-Content-Type-Options; then the Date; then the plain-text reply's
// Content-Length; then Connection: close if the connection closes after
// it.
func (sc *srvConn) reply(status int, soapBody bool, body []byte) {
	b := append(sc.wire[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	if soapBody {
		b = append(b, headerContentSize...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, contentTypeXML...)
	} else {
		b = append(b, contentTypePlain...)
	}
	b = append(b, headerDate...)
	b = time.Now().UTC().AppendFormat(b, http.TimeFormat)
	if !soapBody {
		b = append(b, headerContentSize...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	if sc.close {
		b = append(b, connectionClose...)
	}
	b = append(b, "\r\n\r\n"...)
	if !sc.noBody {
		b = append(b, body...)
	}
	sc.wire = b
}

// send writes b to the peer. A failed write means the peer hung up, and
// there is no one left to fault to: the connection closes.
func (sc *srvConn) send(b []byte) bool {
	_, err := sc.nc.Write(b)
	return err == nil
}

// hangUp ends a connection whose peer may still be sending the rest of
// a request the server did not read. Closing with unread input resets
// the connection, which can destroy the reply before the peer reads it;
// so, as net/http did, the server first closes its side for writing and
// discards what arrives, until the peer closes or lingerTime passes.
func (sc *srvConn) hangUp() {
	cw, ok := sc.nc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil || sc.nc.SetReadDeadline(time.Now().Add(lingerTime)) != nil {
		return
	}
	if _, err := io.Copy(io.Discard, sc.br); err != nil {
		return // the linger ran out, or the peer reset: close anyway
	}
}
