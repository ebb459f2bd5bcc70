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
	"net/http/httptrace"
	"net/http/httputil"
	"net/textproto"
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
// head and body in one write, reads the reply head with the
// container's own parser on the connection's buffered reader, and
// reads the body through the connection. The connection goes back to
// the pool when the caller closes a body it read to EOF. No goroutine
// of the transport outlives the call.
//
// An unwrapped Client calls post, which writes the SOAP request head
// itself from the address and the action, so its exchange builds no
// http.Request, url.URL, header map or http.Response. A pooled
// delivery client pipelines instead: it checks out one connection,
// writes a run of such requests in one write, and reads the replies in
// order with the same parser (Client.pipeline). RoundTrip serves
// wrapped transports (netlat, faultinject, perfbench's meter) over the
// same pool, reply parser and body reader, one exchange per request.
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
	length       int64 // the body length the head gives, -1 if unknown
	closes, keep bool  // the reply closes; neither side closes
	gzip         bool  // the body is gzip-encoded; zr decodes it
	chunks       io.Reader
	left         int64
	zr           *gzip.Reader
	eof          bool  // the body was read to its end
	err          error // the first body read error other than EOF
	// val holds the value of the head field being read, when the
	// transport acts on it; cl holds the reply's first Content-Length.
	val, cl []byte

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

// request is what the transport must know of a request beyond its
// bytes.
type request struct {
	gzip       bool // it asks for gzip, so a gzip-encoded reply is decoded
	close      bool // it asks the peer to close the connection
	head       bool // a HEAD request: the reply has no body
	countConns bool // count the connection as a delivery dial or reuse
}

// address is a plain http or https URL split for the wire: the pool
// key, the Host field and the request target.
type address struct {
	key       connKey
	host, uri string
}

// parseAddress splits a URL of the form scheme://name[:port][/path]
// whose name and path need no escaping, which url.Parse and
// Request.RequestURI would pass through unchanged. Any other URL
// reports false: it needs url.Parse's rules, and RoundTrip's.
func parseAddress(s string) (a address, ok bool) {
	rest, ok := strings.CutPrefix(s, "http://")
	if !ok {
		if rest, ok = strings.CutPrefix(s, "https://"); !ok {
			return a, false
		}
		a.key.https = true
	}
	a.host, a.uri = rest, "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		a.host, a.uri = rest[:i], rest[i:]
	}
	name, port, hasPort := strings.Cut(a.host, ":")
	if name == "" || hasPort && (port == "" || strings.Trim(port, "0123456789") != "") ||
		!plainChars(name, ".-_") || !plainChars(a.uri, ".-_~/!$&'()*+,;=:@") {
		return a, false
	}
	a.key.addr = a.host
	if !hasPort {
		a.key.addr = name + ":80"
		if a.key.https {
			a.key.addr = name + ":443"
		}
	}
	return a, true
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

// post is the exchange of an unwrapped Client: it POSTs env, a SOAP
// envelope for action, to dst and returns the reply's status and body,
// which the caller reads and closes. closeConn asks the peer to close
// the connection after the reply, and closes it; countConns counts the
// connection as a delivery dial or reuse.
func (t *transport) post(ctx context.Context, dst address, action string, env []byte, closeConn, countConns bool) (int, io.ReadCloser, error) {
	if !validFieldValue(action) {
		return 0, nil, errBadAction
	}
	wire := wirePool.Get().(*[]byte)
	defer putWire(wire)
	*wire = appendPost((*wire)[:0], dst, action, env, closeConn)
	pc, err := t.send(ctx, dst.key, *wire, request{gzip: true, close: closeConn, countConns: countConns})
	if err != nil {
		return 0, nil, err
	}
	return pc.status, reply{pc}, nil
}

var errBadAction = errors.New(`net/http: invalid header field value for "Soapaction"`)

// RoundTrip runs one exchange on the calling goroutine, for a wrapped
// transport. The response carries the reply's status, framing and
// body, and an empty Header: the SOAP client reads nothing else.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
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
	pc, err := t.send(req.Context(), key, *wire, request{gzip: gz, close: req.Close, head: req.Method == http.MethodHead})
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: pc.status, Header: http.Header{}, Body: &body{r: reply{pc}}, ContentLength: pc.length,
		Close: pc.closes, Uncompressed: pc.gzip, Request: req,
	}, nil
}

// send checks out a connection to key, writes wire, a whole request,
// and reads the reply head. The caller reads the reply's body from the
// connection and closes it.
func (t *transport) send(ctx context.Context, key connKey, wire []byte, req request) (*conn, error) {
	pc, err := t.checkout(ctx, key, 0)
	if err != nil {
		return nil, err
	}
	if req.countConns {
		countDeliveryConns(pc.reused, 1)
	}
	if trace := httptrace.ContextClientTrace(ctx); trace != nil && trace.GotConn != nil {
		trace.GotConn(httptrace.GotConnInfo{Conn: pc.nc, Reused: pc.reused, WasIdle: pc.reused})
	}
	if _, err = pc.nc.Write(wire); err == nil {
		err = pc.nextReply(req)
	}
	if err != nil {
		err = pc.ctxErr(err)
		pc.release(false)
		return nil, err
	}
	return pc, nil
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

// nextReply reads the next reply head, skipping interim 1xx replies; the
// heads read share one maxHead allowance.
func (pc *conn) nextReply(req request) error {
	left := maxHead
	for {
		if err := pc.readHead(&left, req); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if pc.status >= 200 || pc.status == http.StatusSwitchingProtocols {
			return nil
		}
	}
}

// reusable reports whether the reply just read leaves the connection
// fit for another: its body was read to the end, and neither side
// asked to close.
func (pc *conn) reusable() bool { return pc.keep && pc.eof && pc.err == nil }

// replyFields is what a reply head's fields say, once read.
type replyFields struct {
	lengths, encodings int  // Content-Length and Transfer-Encoding fields
	badLength, chunked bool // the lengths differ; the first encoding is chunked
	close, keepAlive   bool // Connection tokens
	coded, gzip        bool // a Content-Encoding was read; the first is gzip
	badTrailer         bool // a Trailer field names a framing field
}

// readHead reads one reply head and sets pc's reply from it, judging
// it by http.ReadResponse's rules: the status line, the field lines
// (obs-fold continuations included) and, once the head has ended, the
// body's framing.
func (pc *conn) readHead(left *int, req request) error {
	line, err := readLine(pc.br, left, errReplyHeadTooLarge)
	if err != nil {
		return err
	}
	major, minor, err := pc.statusLine(line)
	if err != nil {
		return err
	}
	var f replyFields
	field := fieldOther
	for first := true; ; first = false {
		line, err := readLine(pc.br, left, errReplyHeadTooLarge)
		if err != nil {
			return err
		}
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			// A continuation line (obs-fold) extends the previous field.
			v := trimOWS(line)
			if first || !validFieldValue(v) {
				return fmt.Errorf("malformed MIME header line: %q", line)
			}
			if field != fieldOther {
				pc.val = append(append(pc.val, ' '), v...)
			}
			continue
		}
		pc.apply(&f, field)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok || !validReplyFieldName(name) || !validFieldValue(value) {
			return fmt.Errorf("malformed MIME header line: %q", line)
		}
		if field = fieldOf(name); field != fieldOther {
			pc.val = append(pc.val[:0], trimOWS(value)...)
		}
	}
	return pc.frame(major, minor, &f, req)
}

// statusLine parses "HTTP/x.y code reason" into pc.status. The code is
// read as http.ReadResponse reads it, with strconv.Atoi, which takes a
// sign; only a negative code is refused.
func (pc *conn) statusLine(line []byte) (major, minor int, err error) {
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

// validReplyFieldName reports whether name is a field name
// http.ReadResponse reads: a token, in which it tolerates spaces (and
// then matches no field it acts on).
func validReplyFieldName(name []byte) bool {
	for _, c := range name {
		if c != ' ' && !tokenByte(c) {
			return false
		}
	}
	return len(name) > 0
}

// apply records what the field just read says.
func (pc *conn) apply(f *replyFields, field int) {
	switch field {
	case fieldContentLength:
		v := trimOWS(pc.val)
		if f.lengths == 0 {
			pc.cl = append(pc.cl[:0], v...)
		} else if !bytes.Equal(v, pc.cl) {
			f.badLength = true
		}
		f.lengths++
	case fieldTransferEncoding:
		if f.encodings == 0 {
			f.chunked = fieldIs(pc.val, "chunked")
		}
		f.encodings++
	case fieldConnection:
		f.close = f.close || hasToken(pc.val, "close")
		f.keepAlive = f.keepAlive || hasToken(pc.val, "keep-alive")
	case fieldContentEncoding:
		if !f.coded {
			f.coded, f.gzip = true, fieldIs(pc.val, "gzip")
		}
	case fieldTrailer:
		f.badTrailer = f.badTrailer || hasToken(pc.val, "transfer-encoding") || hasToken(pc.val, "trailer") ||
			hasToken(pc.val, "content-length")
	}
}

// frame sets the reply's body framing and connection fate from its
// head, as http.ReadResponse's readTransfer does.
func (pc *conn) frame(major, minor int, f *replyFields, req request) error {
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
	length := int64(-1)
	if f.lengths > 0 {
		if f.badLength {
			return errors.New("http: message cannot contain multiple Content-Length headers")
		}
		n, err := strconv.ParseUint(string(pc.cl), 10, 63)
		if err != nil {
			return fmt.Errorf("bad Content-Length %q", pc.cl)
		}
		length = int64(n)
	}
	if chunked && f.badTrailer {
		return errors.New("http: bad trailer key")
	}
	pc.length, pc.left, pc.chunks, pc.zr = 0, 0, nil, nil
	switch {
	case req.head:
		pc.length = length
	case pc.status/100 == 1 || pc.status == http.StatusNoContent || pc.status == http.StatusNotModified:
	case chunked:
		pc.length = -1
		pc.chunks = httputil.NewChunkedReader(pc.br)
	case length >= 0:
		pc.length, pc.left = length, length
	default:
		// Neither a length nor chunks: the body ends when the peer closes.
		pc.length, pc.left, pc.closes = -1, -1, true
	}
	pc.gzip = req.gzip && f.gzip
	if pc.gzip {
		pc.length = -1
	}
	pc.keep = !pc.closes && !req.close && pc.status != http.StatusSwitchingProtocols
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
			if terr := readTrailer(pc.br); terr != nil {
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
// chunk, as net/http did: it must end within the read buffer.
func readTrailer(br *bufio.Reader) error {
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
	if _, err := textproto.NewReader(br).ReadMIMEHeader(); err != nil {
		if err == io.EOF {
			return errTrailerEOF
		}
		return err
	}
	return nil
}

// body is a RoundTrip reply's body, which refuses use after Close.
type body struct {
	r    reply
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

// appendPost appends the request appendRequest writes for a Client's
// SOAP POST of env to dst, field for field.
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
		if !tokenByte(k[i]) {
			return false
		}
	}
	return true
}

func tokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
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
