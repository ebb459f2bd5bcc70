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
	"net/http/httputil"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// transport is the HTTP/1.1 client under every SOAP exchange. The
// calling goroutine does the whole exchange: it checks out a pooled
// connection to the scheme and host (or dials one), writes the request
// head and body in one write, reads the reply head on the connection's
// buffered reader, its field lines through the server's field reader
// (fields), and reads the body through the connection. The connection
// goes back to the pool when the caller closes a body it read to EOF.
// No goroutine of the transport outlives the call.
//
// A Client calls post, which writes the SOAP request head itself from
// the address and the action, so its exchange builds no http.Request,
// url.URL, header map or http.Response. A pooled delivery client
// pipelines instead: it checks out one connection, writes a run of such
// requests in one write, and reads the replies in order the same way
// (Client.pipeline). What stands between the client and its peer wraps
// the connection, not the transport: wrap, when set, wraps each
// connection the transport dials, once any TLS handshake is done (a
// netlat link, the faultinject harness), so a wrapped client takes
// these same paths. RoundTrip is an adapter over post for a Client
// whose transport is itself wrapped in an http.RoundTripper
// (perfbench's meter).
//
// The request head is byte for byte the one net/http's client writes,
// replies are framed by http.ReadResponse's rules, and the pool keeps
// net/http's per-host idle limit, idle timeout and LIFO reuse. It
// pools a connection only once the reply to every request written on
// it was read whole, and never writes a request twice. Connections are the
// container's own to cache, which is what makes the HTTPS scenario
// fast ("due to socket caching, HTTPS performance is much faster",
// §4.1.3).
type transport struct {
	// tls configures https dials; each dial uses a clone with ServerName
	// taken from the host. nil selects the default configuration.
	tls *tls.Config
	// maxIdle bounds the idle connections kept per scheme and host.
	maxIdle int
	// dial opens the TCP connection to a host:port.
	dial func(ctx context.Context, addr string) (net.Conn, error)
	// wrap, when set, wraps each connection dialed, after any TLS
	// handshake: the handshake pays nothing a wrapper charges, and a
	// wrapper sees the plain request bytes.
	wrap func(net.Conn) net.Conn

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
	errTrailerEOF        = errors.New("http: unexpected EOF reading trailer")
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
	// br reads nc. Only a checked-out connection holds one: readers
	// lends them.
	br *bufio.Reader
	// deadline reports a deadline set on nc.
	deadline bool
	reused   bool

	// The exchange in progress: its context, the registration that
	// aborts it when the context is done (nil without one), and the
	// client's timeout, which bounds each reply's wait (0: none).
	ctx     context.Context
	stop    func() bool
	timeout time.Duration
	// The reply: its status, whether it or the request asked to close,
	// and its body's framing. The body is chunked (chunks decodes it),
	// sized (left bytes still to read) or ends at EOF (left < 0).
	status       int
	closes, keep bool // the reply closes; neither side closes
	gzip         bool // the body is gzip-encoded; zr decodes it
	chunks       io.Reader
	left         int64
	zr           *gzip.Reader
	eof          bool  // the body was read to its end
	err          error // the first body read error other than EOF
	// f reads each reply head's fields, and a chunked body's trailer.
	f fields

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

// address is a plain http or https URL split for the wire: the pool
// key, the Host field and the request target.
type address struct {
	key       connKey
	host, uri string
}

// The bytes a plain address's path may hold besides ASCII letters and
// digits; its query may also hold '?'.
const pathChars = ".-_~/!$&'()*+,;=:@"

// parseAddress splits a URL of the form
// scheme://host[:port][/path][?query], whose host is a name or a
// bracketed IPv6 literal and whose path and query need no escaping:
// the URLs whose Host field and request target url.Parse and
// http.Request.Write pass through unchanged. Any other URL (an escape,
// userinfo, a fragment, an IPv6 zone, another scheme) is refused with
// an error that names it.
func parseAddress(s string) (a address, err error) {
	rest, ok := strings.CutPrefix(s, "http://")
	if !ok {
		if rest, ok = strings.CutPrefix(s, "https://"); !ok {
			return a, unsupportedAddress(s)
		}
		a.key.https = true
	}
	a.host, a.uri = rest, "/"
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		a.host, a.uri = rest[:i], rest[i:]
		if rest[i] == '?' {
			a.uri = "/" + a.uri
		}
	}
	name, port, hasPort := strings.Cut(a.host, ":")
	if ip, ok := strings.CutPrefix(a.host, "["); ok {
		var after string
		name, after, ok = strings.Cut(ip, "]")
		port, hasPort = strings.CutPrefix(after, ":")
		if !ok || !hasPort && after != "" || !strings.Contains(name, ":") || net.ParseIP(name) == nil {
			return a, unsupportedAddress(s)
		}
	} else if !plainChars(name, ".-_") {
		return a, unsupportedAddress(s)
	}
	path, query, _ := strings.Cut(a.uri, "?")
	if name == "" || hasPort && (port == "" || strings.Trim(port, "0123456789") != "") ||
		!plainChars(path, pathChars) || !plainChars(query, pathChars+"?") {
		return a, unsupportedAddress(s)
	}
	a.key.addr = a.host
	if !hasPort {
		a.key.addr = net.JoinHostPort(name, "80")
		if a.key.https {
			a.key.addr = net.JoinHostPort(name, "443")
		}
	}
	return a, nil
}

func unsupportedAddress(s string) error {
	return fmt.Errorf("container: unsupported address %q: not a plain http or https URL", s)
}

// plainChars reports whether s holds only ASCII letters and digits and
// the bytes of extra.
func plainChars(s, extra string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || strings.IndexByte(extra, c) >= 0) {
			return false
		}
	}
	return true
}

// post is a Client's exchange: it POSTs env, a SOAP envelope for
// action, to dst and returns the reply's status and body, which the
// caller reads and closes. closeConn asks the peer to close the
// connection after the reply, and closes it; countConns counts the
// connection as a delivery dial or reuse.
func (t *transport) post(ctx context.Context, dst address, action string, env []byte, closeConn, countConns bool) (int, io.ReadCloser, error) {
	if !validFieldValue(action) {
		return 0, nil, errBadAction
	}
	wire := wirePool.Get().(*[]byte)
	defer putWire(wire)
	*wire = appendPost((*wire)[:0], dst, action, env, closeConn)
	pc, err := t.checkout(ctx, dst.key, 0)
	if err != nil {
		return 0, nil, err
	}
	if countConns {
		countDeliveryConns(pc.reused, 1)
	}
	if _, err = pc.nc.Write(*wire); err == nil {
		err = pc.nextReply(closeConn)
	}
	if err != nil {
		err = pc.ctxErr(err)
		pc.release(false)
		return 0, nil, err
	}
	return pc.status, reply{pc}, nil
}

var errBadAction = errors.New(`net/http: invalid header field value for "Soapaction"`)

// countConnsKey marks the context of a delivery whose connection
// RoundTrip counts, as post counts a delivery client's.
type countConnsKey struct{}

// RoundTrip is post for a Client whose transport is wrapped in an
// http.RoundTripper (perfbench's meter): it POSTs req's body to req's
// URL for its Soapaction, in the bytes post writes, and reads nothing
// else of req but Close. The response carries the reply's status and
// body, and an empty Header: the SOAP client reads nothing else.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	env := bodyPool.Get().(*wireBuf)
	defer env.release()
	env.Reset()
	var err error
	if req.Body != nil {
		err = env.readFrom(req.Body)
		req.Body.Close()
	}
	if err != nil {
		return nil, err
	}
	dst, err := parseAddress(req.URL.String())
	if err != nil {
		return nil, err
	}
	count, _ := req.Context().Value(countConnsKey{}).(bool)
	status, rc, err := t.post(req.Context(), dst, req.Header.Get("Soapaction"), env.Bytes(), req.Close, count)
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: status, Header: http.Header{}, Body: &body{r: rc}, Request: req}, nil
}

// checkout checks out a connection to key for an exchange under ctx:
// a pooled live one, or one dialed within timeout. Its deadline is
// armed for the first write and reply.
func (t *transport) checkout(ctx context.Context, key connKey, timeout time.Duration) (*conn, error) {
	pc, err := t.get(ctx, key, timeout)
	if err != nil {
		return nil, err
	}
	pc.ctx, pc.timeout = ctx, timeout
	pc.arm()
	if ctx.Done() != nil {
		pc.stop = context.AfterFunc(ctx, pc.abortFn)
	}
	return pc, nil
}

// arm sets the deadline for what the exchange does next: the context's
// deadline, or the timeout from now if that is sooner.
func (pc *conn) arm() {
	d, ok := pc.ctx.Deadline()
	if pc.timeout > 0 {
		if td := time.Now().Add(pc.timeout); !ok || td.Before(d) {
			d, ok = td, true
		}
	}
	if ok {
		//lint:ignore ogsalint/soapfault only a closed conn refuses a deadline, and the next write or read fails on it
		pc.nc.SetDeadline(d) //nolint:errcheck // see above
		pc.deadline = true
	}
}

// nextReply reads the next reply head and sets pc's reply from it,
// judging it by http.ReadResponse's rules: the status line, the field
// lines and, once the head has ended, the body's framing. It skips
// interim 1xx replies; the heads read share one maxHead allowance.
// closeConn reports that the request asked the peer to close.
func (pc *conn) nextReply(closeConn bool) error {
	left := maxHead
	for {
		major, minor, err := pc.statusLine(&left)
		if err == nil {
			err = pc.f.read(pc.br, &left, errReplyHeadTooLarge, validReplyFieldName)
		}
		if err == nil {
			err = pc.frame(major, minor, closeConn)
		}
		switch {
		case err == io.EOF:
			return io.ErrUnexpectedEOF
		case err != nil || pc.status >= 200 || pc.status == http.StatusSwitchingProtocols:
			return err
		}
	}
}

// reusable reports whether the reply just read leaves the connection
// fit for another: its body was read to the end, and neither side
// asked to close.
func (pc *conn) reusable() bool { return pc.keep && pc.eof && pc.err == nil }

// statusLine reads "HTTP/x.y code reason" into pc.status, charged to
// the allowance *left. The code is read as http.ReadResponse reads it,
// with strconv.Atoi, which takes a sign; only a negative code is
// refused.
func (pc *conn) statusLine(left *int) (major, minor int, err error) {
	line, err := readLine(pc.br, left, errReplyHeadTooLarge)
	if err != nil {
		return 0, 0, err
	}
	proto, status, ok := bytes.Cut(line, []byte{' '})
	if !ok {
		return 0, 0, fmt.Errorf("malformed HTTP response %q", line)
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(status, " "), []byte{' '})
	if pc.status, err = strconv.Atoi(string(code)); len(code) != 3 || err != nil || pc.status < 0 {
		return 0, 0, fmt.Errorf("malformed HTTP status code %q", code)
	}
	if major, minor, ok = parseVersion(proto); !ok {
		return 0, 0, fmt.Errorf("malformed HTTP version %q", proto)
	}
	return major, minor, nil
}

// frame sets the reply's body framing and connection fate from its
// head, as http.ReadResponse's readTransfer does. Every request asks
// for gzip, so a gzip-encoded body is decoded.
func (pc *conn) frame(major, minor int, closeConn bool) error {
	f := &pc.f
	pc.closes = major < 1 || f.close || major == 1 && minor == 0 && !f.keepAlive
	if major == 0 && minor == 0 {
		major, minor = 1, 1 // framed as HTTP/1.1
	}
	chunked := false
	if f.encodings > 0 && (major > 1 || major == 1 && minor >= 1) {
		if f.encodings > 1 || !f.chunked {
			return errors.New("http: unsupported transfer encoding")
		}
		chunked = true
	}
	if f.badLength {
		return errors.New("http: message cannot contain multiple Content-Length headers")
	}
	length, ok := f.length()
	if !ok {
		return fmt.Errorf("bad Content-Length %q", f.cl)
	}
	if chunked && f.badTrailer {
		return errors.New("http: bad trailer key")
	}
	pc.left, pc.chunks, pc.zr = 0, nil, nil
	switch {
	case pc.status/100 == 1 || pc.status == http.StatusNoContent || pc.status == http.StatusNotModified:
	case chunked:
		pc.chunks = httputil.NewChunkedReader(pc.br)
	case length >= 0:
		pc.left = length
	default:
		// Neither a length nor chunks: the body ends when the peer closes.
		pc.left, pc.closes = -1, true
	}
	pc.gzip = f.gzip
	pc.keep = !pc.closes && !closeConn && pc.status != http.StatusSwitchingProtocols
	pc.eof, pc.err = pc.chunks == nil && pc.left == 0, nil
	return nil
}

// reply is the body of the reply read on a checked-out connection;
// closing it ends the exchange.
type reply struct{ pc *conn }

// Read reads the body, decoded if it is gzip-encoded.
func (r reply) Read(p []byte) (n int, err error) {
	pc := r.pc
	if pc.err != nil {
		return 0, pc.err
	}
	switch {
	case !pc.gzip:
		n, err = pc.readRaw(p)
	case pc.zr == nil:
		if pc.zr, err = gzip.NewReader(rawBody{pc}); err == nil {
			n, err = pc.zr.Read(p)
		}
	default:
		n, err = pc.zr.Read(p)
	}
	if err != nil && err != io.EOF {
		err = pc.ctxErr(err)
		pc.err = err
	}
	return n, err
}

// Close releases the connection: it is pooled if the body was read to
// its end and neither side asked to close, and closed otherwise.
func (r reply) Close() error {
	r.pc.release(r.pc.reusable())
	return nil
}

// release ends the exchange on pc and hands it back: pooled when reuse
// allows it, closed otherwise.
func (pc *conn) release(reuse bool) {
	if pc.stop != nil && !pc.stop() {
		reuse = false // the cancel has interrupted, or is interrupting, the connection
	}
	pc.ctx, pc.stop, pc.chunks, pc.zr = nil, nil, nil, nil
	pc.t.put(pc, reuse)
}

// readRaw reads the body as the wire carries it, noting its end. A
// sized body reports EOF with its last bytes, as net/http's does.
func (pc *conn) readRaw(p []byte) (n int, err error) {
	switch {
	case pc.eof:
		return 0, io.EOF
	case pc.chunks != nil:
		if n, err = pc.chunks.Read(p); err == io.EOF {
			if terr := pc.readTrailer(); terr != nil {
				err = terr
			}
		}
	case pc.left < 0:
		n, err = pc.br.Read(p)
	default:
		if int64(len(p)) > pc.left {
			p = p[:pc.left]
		}
		n, err = pc.br.Read(p)
		pc.left -= int64(n)
		switch {
		case pc.left == 0 && (err == nil || err == io.EOF):
			err = io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
	}
	if err == io.EOF {
		pc.eof = true
	}
	return n, err
}

// rawBody is the reader a gzip-encoded body decodes from.
type rawBody struct{ pc *conn }

func (r rawBody) Read(p []byte) (int, error) { return r.pc.readRaw(p) }

// readTrailer reads the trailer section after a chunked body's last
// chunk, as net/http did: it must end within the read buffer, and its
// field lines are judged as a reply head's.
func (pc *conn) readTrailer() error {
	br := pc.br
	buf, err := br.Peek(2)
	switch {
	case string(buf) == "\r\n":
		_, err := br.Discard(2)
		return err
	case len(buf) < 2:
		return errTrailerEOF
	case err != nil:
		return err
	}
	for n := 4; ; n++ {
		buf, err := br.Peek(n)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errors.New("http: suspiciously long trailer after chunked body")
		}
	}
	// The blank line that ends the trailer is buffered, so no read
	// reaches the connection.
	left := maxHead
	return pc.f.read(br, &left, errReplyHeadTooLarge, validReplyFieldName)
}

// body is a RoundTrip reply's body, which refuses use after Close.
type body struct {
	r    io.ReadCloser
	done bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.done {
		return 0, errBodyClosed
	}
	return b.r.Read(p)
}

func (b *body) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	return b.r.Close()
}

// get checks out the most recently pooled live connection to key, or
// dials one within timeout (0: no bound but ctx's).
func (t *transport) get(ctx context.Context, key connKey, timeout time.Duration) (*conn, error) {
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
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
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
	if t.wrap != nil {
		pc.nc = t.wrap(pc.nc)
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
	pc.br.Reset(pc.nc)
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

// ctxErr reports an I/O error the exchange's bounds caused as net/http
// did: as the context's error once the context is done, and as
// context.DeadlineExceeded when the deadline armed from the context or
// the timeout stopped the call.
func (pc *conn) ctxErr(err error) error {
	if cerr := pc.ctx.Err(); cerr != nil {
		return cerr
	}
	if pc.deadline && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// wirePool recycles the buffers requests are written from.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

func putWire(w *[]byte) {
	if cap(*w) <= maxPooledBody {
		wirePool.Put(w)
	}
}

// appendPost appends a Client's SOAP POST of env to dst, as net/http's
// client writes it: the request line, Host, User-Agent, Connection:
// close when closeConn, Content-Length, the other fields sorted by key,
// and Accept-Encoding: gzip.
func appendPost(b []byte, dst address, action string, env []byte, closeConn bool) []byte {
	b = append(b, "POST "...)
	b = append(b, dst.uri...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, dst.host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if closeConn {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(env)), 10)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, xmlContentType[0]...)
	b = append(b, "\r\nSoapaction: "...)
	b = append(b, textTrim(action)...)
	b = append(b, "\r\nAccept-Encoding: gzip\r\n\r\n"...)
	return append(b, env...)
}

// textTrim trims the spaces and tabs net/http trims from a header value.
func textTrim(s string) string { return strings.Trim(s, " \t") }
