package container

import (
	"bufio"
	"compress/gzip"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// transport is the HTTP/1.1 client under every SOAP exchange. The
// calling goroutine does the whole exchange: it checks out a pooled
// connection to the scheme and host (or dials one), writes the request
// head and body in one write, and reads the reply head with
// http.ReadResponse on the connection's buffered reader. The connection
// goes back to the pool when the caller closes a body it read to EOF.
// No goroutine of the transport outlives the call.
//
// The request head is byte for byte the one net/http's client writes,
// and the pool keeps its per-host idle limit, idle timeout and LIFO
// reuse. Connections are the container's own to cache, which is what
// makes the HTTPS scenario fast ("due to socket caching, HTTPS
// performance is much faster", §4.1.3).
type transport struct {
	// tls configures https dials; each dial uses a clone with ServerName
	// taken from the host. nil selects the default configuration.
	tls *tls.Config
	// maxIdle bounds the idle connections kept per scheme and host.
	maxIdle int
	// dial opens the TCP connection to a host:port.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu sync.Mutex
	// idle holds each host's idle connections as a stack through
	// conn.next, most recently used on top.
	idle map[connKey]*conn
}

const (
	// maxHead bounds an HTTP head in either direction: the bytes the
	// transport reads for a reply head, interim 1xx heads included, and
	// the bytes the server reads for a request head.
	maxHead = http.DefaultMaxHeaderBytes
	// idleConnTimeout closes a connection left idle this long.
	idleConnTimeout = 90 * time.Second
)

var (
	errReplyHeadTooLarge = fmt.Errorf("reply head exceeds %d bytes", maxHead)
	errBodyClosed        = errors.New("read on closed reply body")
	// aLongTimeAgo is the deadline that interrupts a blocked read or
	// write when an exchange's context is cancelled.
	aLongTimeAgo = time.Unix(1, 0)
)

func newTransport(tlsCfg *tls.Config, maxIdle int) *transport {
	var d net.Dialer
	return &transport{
		tls:     tlsCfg,
		maxIdle: maxIdle,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		},
		idle: map[connKey]*conn{},
	}
}

// defaultTransport serves clients built without NewClient.
var defaultTransport = newTransport(nil, defaultPoolSize)

type connKey struct {
	https bool
	addr  string // host:port
}

// conn is one HTTP/1.1 connection, used by one exchange at a time.
type conn struct {
	t   *transport
	key connKey
	nc  net.Conn // TLS-wrapped for https
	// raw is the TCP socket under nc, probed when the connection leaves
	// the pool; nil when the dialed connection exposes none.
	raw syscall.RawConn
	// br reads through the conn, within headLeft. Only a checked-out
	// connection holds one: readers lends them.
	br *bufio.Reader
	// headLeft is what the reply head being read may still take.
	headLeft int64
	// deadline reports a context deadline set on nc.
	deadline bool
	reused   bool

	// While idle: the next older idle connection to the same host, the
	// idle connections from this one down, when it went idle, and the
	// timer that closes it after idleConnTimeout.
	next      *conn
	depth     int
	idleAt    time.Time
	idleTimer *time.Timer

	// Method values bound once, so an exchange allocates none.
	abortFn, expireFn func()
	probeFn           func(fd uintptr) bool
	probeBuf          [1]byte
	probeLive         bool
}

// Read feeds br, charging a reply head's bytes against headLeft.
func (pc *conn) Read(p []byte) (int, error) {
	if pc.headLeft <= 0 {
		return 0, errReplyHeadTooLarge
	}
	if int64(len(p)) > pc.headLeft {
		p = p[:pc.headLeft]
	}
	n, err := pc.nc.Read(p)
	pc.headLeft -= int64(n)
	return n, err
}

// abort interrupts the exchange blocked on pc; a cancelled context runs
// it.
func (pc *conn) abort() {
	//lint:ignore ogsalint/soapfault only a closed conn refuses a deadline, and its blocked call reports that
	pc.nc.SetDeadline(aLongTimeAgo) //nolint:errcheck // see above
}

// live reports whether a connection leaving the pool is still usable:
// the peer has not closed it, nor sent anything, while it sat idle.
// net/http learned this from a read loop parked on every idle
// connection; here one non-blocking peek at the socket answers it, so a
// stale connection costs a dial instead of a failed exchange.
func (pc *conn) live() bool {
	if pc.raw == nil {
		return true
	}
	pc.probeLive = false
	if err := pc.raw.Read(pc.probeFn); err != nil {
		return false
	}
	return pc.probeLive
}

func (pc *conn) probe(fd uintptr) bool {
	pc.probeLive = peekWouldBlock(fd, pc.probeBuf[:])
	return true
}

// RoundTrip runs one exchange on the calling goroutine.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	wire := wirePool.Get().(*[]byte)
	defer putWire(wire)
	gz := gzipWanted(req)
	var err error
	*wire, err = appendRequest((*wire)[:0], req, gz)
	if req.Body != nil {
		req.Body.Close()
	}
	if err != nil {
		return nil, err
	}
	key, err := keyOf(req.URL)
	if err != nil {
		return nil, err
	}
	pc, err := t.get(ctx, key)
	if err != nil {
		return nil, err
	}
	if trace := httptrace.ContextClientTrace(ctx); trace != nil && trace.GotConn != nil {
		trace.GotConn(httptrace.GotConnInfo{Conn: pc.nc, Reused: pc.reused, WasIdle: pc.reused})
	}
	if d, ok := ctx.Deadline(); ok {
		//lint:ignore ogsalint/soapfault only a closed conn refuses a deadline, and the write below fails on it
		pc.nc.SetDeadline(d) //nolint:errcheck // see above
		pc.deadline = true
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.abortFn)
	}
	resp, err := pc.exchange(req, *wire)
	if err != nil {
		if stop != nil {
			stop()
		}
		t.put(pc, false)
		return nil, ctxErr(ctx, err)
	}
	b := &body{pc: pc, ctx: ctx, raw: resp.Body, stop: stop, eof: resp.Body == http.NoBody,
		keep: !resp.Close && !req.Close && resp.StatusCode != http.StatusSwitchingProtocols}
	if gz && strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		b.gzip = true
		resp.Header.Del("Content-Encoding")
		resp.Header.Del("Content-Length")
		resp.ContentLength = -1
		resp.Uncompressed = true
	}
	resp.Body = b
	return resp, nil
}

// exchange writes the request and reads the reply head, skipping
// interim 1xx replies.
func (pc *conn) exchange(req *http.Request, wire []byte) (*http.Response, error) {
	if _, err := pc.nc.Write(wire); err != nil {
		return nil, err
	}
	pc.headLeft = maxHead
	for {
		resp, err := http.ReadResponse(pc.br, req)
		if err != nil {
			if pc.headLeft <= 0 {
				err = errReplyHeadTooLarge
			}
			return nil, err
		}
		if resp.StatusCode >= 200 || resp.StatusCode == http.StatusSwitchingProtocols {
			pc.headLeft = math.MaxInt64
			return resp, nil
		}
	}
}

// get checks out the most recently pooled live connection to key, or
// dials one.
func (t *transport) get(ctx context.Context, key connKey) (*conn, error) {
	for {
		t.mu.Lock()
		pc := t.idle[key]
		if pc != nil {
			if pc.next == nil {
				delete(t.idle, key)
			} else {
				t.idle[key] = pc.next
			}
			pc.next = nil
		}
		t.mu.Unlock()
		if pc == nil {
			break
		}
		pc.idleTimer.Stop()
		if pc.live() {
			pc.reused = true
			pc.lendReader()
			return pc, nil
		}
		pc.nc.Close()
	}
	return t.dialConn(ctx, key)
}

func (t *transport) dialConn(ctx context.Context, key connKey) (*conn, error) {
	nc, err := t.dial(ctx, key.addr)
	if err != nil {
		return nil, err
	}
	pc := &conn{t: t, key: key, nc: nc}
	if sc, ok := nc.(syscall.Conn); ok {
		pc.raw, _ = sc.SyscallConn() // nil: the pool cannot probe it
	}
	if key.https {
		cfg := t.tls.Clone()
		if cfg == nil {
			cfg = &tls.Config{}
		}
		if cfg.ServerName == "" {
			cfg.ServerName, _, _ = net.SplitHostPort(key.addr)
		}
		tc := tls.Client(nc, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			nc.Close()
			return nil, err
		}
		pc.nc = tc
	}
	pc.lendReader()
	pc.abortFn, pc.expireFn, pc.probeFn = pc.abort, pc.expire, pc.probe
	return pc, nil
}

// readers lends each checked-out connection its read buffer, so an idle
// connection holds none.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

func (pc *conn) lendReader() {
	pc.br = readers.Get().(*bufio.Reader)
	pc.br.Reset(pc)
}

// put takes back a checked-out connection: it pools pc when reuse
// allows it and the host's pool has room, and closes it otherwise.
func (t *transport) put(pc *conn, reuse bool) {
	reuse = reuse && pc.br.Buffered() == 0 && (!pc.deadline || pc.nc.SetDeadline(time.Time{}) == nil)
	pc.br.Reset(nil)
	readers.Put(pc.br)
	pc.br, pc.deadline = nil, false
	if reuse {
		t.mu.Lock()
		top := t.idle[pc.key]
		depth := 1
		if top != nil {
			depth += top.depth
		}
		if depth <= t.maxIdle {
			pc.next, pc.depth, pc.idleAt = top, depth, time.Now()
			t.idle[pc.key] = pc
			if pc.idleTimer == nil {
				pc.idleTimer = time.AfterFunc(idleConnTimeout, pc.expireFn)
			} else {
				pc.idleTimer.Reset(idleConnTimeout)
			}
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	pc.nc.Close()
}

// expire runs from pc's idle timer. If pc is still pooled and has sat
// idle for idleConnTimeout, it closes pc and the older connections
// below it.
func (pc *conn) expire() {
	t := pc.t
	t.mu.Lock()
	var above *conn
	p := t.idle[pc.key]
	for p != nil && p != pc {
		above, p = p, p.next
	}
	if p == nil || time.Since(pc.idleAt) < idleConnTimeout {
		// Checked out, or pooled again, since the timer was set.
		t.mu.Unlock()
		return
	}
	if above == nil {
		delete(t.idle, pc.key)
	} else {
		above.next = nil
	}
	for q := t.idle[pc.key]; q != nil; q = q.next {
		q.depth -= pc.depth
	}
	t.mu.Unlock()
	for p != nil {
		next := p.next
		p.next = nil
		p.nc.Close()
		p = next
	}
}

// body is a reply body on a checked-out connection. Closing it pools
// the connection if the reply was read to EOF and neither side asked to
// close, and closes the connection otherwise.
type body struct {
	pc   *conn
	ctx  context.Context
	raw  io.ReadCloser // http.ReadResponse's body
	stop func() bool   // unregisters the cancel; nil without one
	keep bool          // neither side asked to close
	gzip bool          // raw is gzip-encoded; zr decodes it
	zr   *gzip.Reader
	eof  bool  // raw was read to EOF
	err  error // the first read error other than EOF
	done bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.done {
		return 0, errBodyClosed
	}
	var n int
	var err error
	switch {
	case !b.gzip:
		n, err = b.readRaw(p)
	case b.zr == nil:
		if b.zr, err = gzip.NewReader(rawBody{b}); err == nil {
			n, err = b.zr.Read(p)
		}
	default:
		n, err = b.zr.Read(p)
	}
	if err != nil && err != io.EOF {
		err = ctxErr(b.ctx, err)
		if b.err == nil {
			b.err = err
		}
	}
	return n, err
}

// readRaw reads the body as the wire carries it, noting its end.
func (b *body) readRaw(p []byte) (int, error) {
	n, err := b.raw.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// rawBody is the reader a gzip-encoded body decodes from.
type rawBody struct{ b *body }

func (r rawBody) Read(p []byte) (int, error) { return r.b.readRaw(p) }

// Close releases the connection. The raw body is not closed: net/http
// drains an unfinished body on Close, and an unfinished body's
// connection is closed instead.
func (b *body) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	reuse := b.keep && b.eof && b.err == nil
	if b.stop != nil && !b.stop() {
		reuse = false // the cancel has interrupted, or is interrupting, the connection
	}
	b.pc.t.put(b.pc, reuse)
	return nil
}

// ctxErr reports an I/O error a done context caused as the context's
// error, which is what net/http returned: the connection deadline that
// stopped the call is the context's deadline, or its cancellation.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

func keyOf(u *url.URL) (connKey, error) {
	var key connKey
	switch u.Scheme {
	case "http":
	case "https":
		key.https = true
	default:
		return key, fmt.Errorf("unsupported protocol scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return key, errors.New("http: no Host in request URL")
	}
	key.addr = u.Host
	if u.Port() == "" {
		port := "80"
		if key.https {
			port = "443"
		}
		key.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return key, nil
}

// wirePool recycles the buffers requests are written from.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

func putWire(w *[]byte) {
	if cap(*w) <= maxPooledBody {
		wirePool.Put(w)
	}
}

// gzipWanted reports whether the transport asks for a gzip-encoded
// reply, and so decodes one, as net/http did.
func gzipWanted(req *http.Request) bool {
	return req.Method != http.MethodHead && req.Header.Get("Accept-Encoding") == "" && req.Header.Get("Range") == ""
}

// reqHeadSkip names the header keys appendRequest writes itself.
var reqHeadSkip = map[string]bool{"Host": true, "User-Agent": true, "Content-Length": true, "Transfer-Encoding": true, "Trailer": true}

// appendRequest appends req's head and body to b, as net/http's client
// writes them: the request line, Host, User-Agent, Connection: close
// when req.Close, Content-Length, the rest of req.Header sorted by key,
// and Accept-Encoding: gzip when gz.
func appendRequest(b []byte, req *http.Request, gz bool) ([]byte, error) {
	size := req.ContentLength
	if req.Body == nil || req.Body == http.NoBody {
		size = 0
	} else if size <= 0 {
		return b, errors.New("container: request body of unknown length")
	}
	method := req.Method
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, req.URL.RequestURI()...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	ua := "Go-http-client/1.1"
	if _, ok := req.Header["User-Agent"]; ok {
		ua = textTrim(req.Header.Get("User-Agent"))
	}
	if ua != "" {
		b = appendField(b, "User-Agent", ua)
	}
	if req.Close {
		b = append(b, "Connection: close\r\n"...)
	}
	if size > 0 || method != http.MethodGet && method != http.MethodHead {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, size, 10)
		b = append(b, "\r\n"...)
	}
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k, vv := range req.Header {
		if !validFieldName(k) {
			return b, fmt.Errorf("net/http: invalid header field name %q", k)
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return b, fmt.Errorf("net/http: invalid header field value for %q", k)
			}
		}
		if !reqHeadSkip[k] {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range req.Header[k] {
			b = appendField(b, k, textTrim(v))
		}
	}
	if gz {
		b = append(b, "Accept-Encoding: gzip\r\n"...)
	}
	b = append(b, "\r\n"...)
	if size == 0 {
		return b, nil
	}
	n := len(b)
	b = slices.Grow(b, int(size))[:n+int(size)]
	if got, err := io.ReadFull(req.Body, b[n:]); err != nil {
		return b[:n], fmt.Errorf("http: ContentLength=%d with Body length %d", size, got)
	}
	return b, nil
}

func appendField(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, "\r\n"...)
}

// textTrim trims the spaces and tabs net/http trims from a header value.
func textTrim(s string) string { return strings.Trim(s, " \t") }

// validFieldName reports whether k is an HTTP token.
func validFieldName[S string | []byte](k S) bool {
	if len(k) == 0 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0 {
			continue
		}
		return false
	}
	return true
}

// validFieldValue reports whether v holds no control byte but a tab.
func validFieldValue[S string | []byte](v S) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
