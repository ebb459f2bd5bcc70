package container

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"altstacks/internal/netlat"
	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wssec"
	"altstacks/internal/xmlutil"
)

// Client is the proxy through which both stacks' clients invoke
// services: it stamps WS-Addressing headers (including the target
// EPR's reference properties), applies the configured security mode,
// performs the HTTP exchange, and unwraps the SOAP response.
//
// The paper observes that "from a client perspective, engaging either
// counter service is similar to invoking web methods on any other Web
// service — via a Web service proxy object" (§4.1.3); Client is that
// proxy object, shared by both stacks.
type Client struct {
	// HTTP supplies the exchanges' Transport and Timeout; SOAP follows
	// no redirects and keeps no cookies, so its other fields go unused.
	// NewClient installs the container's own HTTP/1.1 transport, whose
	// pooled connections are what makes the HTTPS scenario fast ("due to
	// socket caching, HTTPS performance is much faster", §4.1.3); a nil
	// HTTP or Transport uses a shared one. A Transport wrapped in another
	// http.RoundTripper (perfbench's meter) makes one exchange per
	// message, through the container transport's RoundTrip.
	HTTP *http.Client
	// Signer signs requests (X.509 scenarios); nil otherwise.
	Signer *wssec.Signer
	// Verifier verifies signed responses; nil skips verification.
	Verifier *wssec.Verifier

	// traceConns counts each exchange's connection as a delivery dial
	// or reuse, and closeConns closes it after the exchange (both set by
	// ForDelivery).
	traceConns, closeConns bool
}

// ClientConfig assembles a Client for one experimental scenario.
type ClientConfig struct {
	Mode SecurityMode
	// Link models the network between client and service: its Conn
	// wraps every connection the client dials.
	Link netlat.Profile
	// TLS is required for SecurityTLS (trusting the container's CA).
	TLS *tls.Config
	// Signer/Verifier are required for SecuritySign.
	Signer   *wssec.Signer
	Verifier *wssec.Verifier
	// PoolSize sizes the per-host idle connection pool. Callers that
	// fan out (the notification producers) should pass their fan-out
	// width so a full batch of pooled deliveries to one host never
	// closes connections it is about to need again; 0 selects a
	// general-purpose default of 16.
	PoolSize int
}

// defaultPoolSize is the per-host idle pool when ClientConfig.PoolSize
// is unset.
const defaultPoolSize = 16

// NewClient builds a client for the scenario.
func NewClient(cfg ClientConfig) *Client {
	pool := cfg.PoolSize
	if pool <= 0 {
		pool = defaultPoolSize
	}
	tlsCfg := cfg.TLS
	if tlsCfg != nil && tlsCfg.ClientSessionCache == nil {
		// Session resumption: when a pooled connection has aged out, the
		// re-handshake is abbreviated instead of full — the same socket
		// caching effect the paper credits for HTTPS being "much faster"
		// than expected (§4.1.3), carried across reconnects.
		tlsCfg = tlsCfg.Clone()
		tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(2 * pool)
	}
	// The pool is bounded per host only: a global cap below width × hosts
	// would close pooled connections mid-fan-out.
	t := newTransport(tlsCfg, pool)
	if cfg.Link.Distributed() {
		t.wrap = cfg.Link.Conn
	}
	c := &Client{HTTP: &http.Client{Transport: t}}
	if cfg.Mode == SecuritySign {
		c.Signer = cfg.Signer
		c.Verifier = cfg.Verifier
	}
	return c
}

// Call invokes action on the endpoint, sending body and returning the
// response body element. SOAP faults come back as *soap.Fault errors.
// Cancellation-sensitive callers (the notification fan-outs, anything
// inside a handler) should use CallContext instead.
func (c *Client) Call(epr wsa.EPR, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	return c.CallContext(context.Background(), epr, action, body)
}

// CallContext is Call bounded by ctx: the HTTP exchange aborts when
// ctx is done, so retry backoff and shutdown deadlines propagate into
// the wire exchange itself.
func (c *Client) CallContext(ctx context.Context, epr wsa.EPR, action string, body *xmlutil.Element) (*xmlutil.Element, error) {
	env, err := c.callEnvelope(ctx, epr, action, body)
	if err != nil {
		return nil, err
	}
	return env.Body, nil
}

// CallEnvelope is Call but returns the whole response envelope, for
// callers that need response headers.
func (c *Client) CallEnvelope(epr wsa.EPR, action string, body *xmlutil.Element) (*soap.Envelope, error) {
	return c.callEnvelope(context.Background(), epr, action, body)
}

// Deliver sends a one-way message (a notification, an event, a
// subscription-end notice) with optional extra header blocks, and
// reports only whether the consumer acknowledged it: a SOAP fault comes
// back as a *soap.Fault error, as from Call. It is the one-message case
// of DeliverEach.
func (c *Client) Deliver(ctx context.Context, epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element) error {
	var err error
	c.DeliverEach(ctx, 1, func(int) Message {
		return Message{Ctx: ctx, To: epr, Action: action, Headers: headers, Body: body}
	}, func(_ int, e error) { err = e })
	return err
}

// Message is one one-way message of DeliverEach.
type Message struct {
	// Ctx carries the span that records the message's MessageID and its
	// acknowledgement's RelatesTo; the exchange runs under DeliverEach's
	// context.
	Ctx     context.Context
	To      wsa.EPR
	Action  string
	Headers []*xmlutil.Element
	Body    *xmlutil.Element
}

// DeliverEach sends n one-way messages, message(i) for i in [0, n), and
// reports each one's outcome to done(i, err), in order, as Deliver
// reports it. Each acknowledgement carries nothing else the sender uses
// and is unsigned, so it is checked in place, without building an
// envelope that outlives the call, and never verified; callers deliver
// through a ForDelivery client, which carries no Verifier.
//
// A pooled client on the container's own transport pipelines messages
// that go to the same address (see pipeline), whatever wraps its
// connections. Other clients make one exchange per message:
// DeliveryPerMessage closes each connection after its reply, and a
// transport wrapped in an http.RoundTripper takes one request at a
// time. A message to an address parseAddress refuses fails, as any
// other failed exchange does.
func (c *Client) DeliverEach(ctx context.Context, n int, message func(int) Message, done func(int, error)) {
	t := c.ownTransport()
	for i := 0; i < n; {
		m := message(i)
		if t != nil && !c.closeConns {
			if dst, err := parseAddress(m.To.Address); err == nil {
				i = c.pipeline(ctx, t, c.httpClient().Timeout, dst, m.To.Address, i, n, message, checkAck, done)
				continue
			}
		}
		done(i, c.exchange(m.Ctx, obs.SpanFromContext(m.Ctx), &m, checkAck))
		i++
	}
}

// A pipelined run is at most maxRun requests and maxRunBytes bytes, so
// that a peer's socket buffers take a whole run before it answers, and
// neither side's write waits on the other's reads. The server holds at
// most maxRunBytes of replies for one write, for the same reason.
const (
	maxRun      = 32
	maxRunBytes = 64 << 10
)

// pending is one request of a pipelined run.
type pending struct {
	i      int       // its message's index
	span   *obs.Span // records its exchange
	action string
	end    int   // where its bytes end in the run's wire
	err    error // why it was not written
}

// readFunc makes a message's outcome of its reply's body and status;
// span is the message's.
type readFunc func(resp []byte, status int, span *obs.Span) error

// pipeline sends message(i), and the messages after it that go to the
// same address (addr, which dst splits for the wire), as HTTP/1.1
// pipelined requests on one connection, and returns the index of the
// first message it did not take. The requests are the ones post
// writes, each with its own MessageID and signature, most of them
// spliced into a template of an earlier one (splice). Each run
// of them goes out in one write, and the replies are read in order,
// each whole, within the client's timeout of the previous one; each
// message's outcome is what read makes of its reply. Once a reply
// fails, or closes the connection, every later message fails: they are
// never written again, and a read that ran out of time or was
// cancelled fails them as it failed, any other as if the peer hung up
// before replying. The connection is pooled only after every reply was
// read whole.
func (c *Client) pipeline(ctx context.Context, t *transport, timeout time.Duration, dst address, addr string, i, n int,
	message func(int) Message, read readFunc, done func(int, error)) int {
	wire := wirePool.Get().(*[]byte)
	defer putWire(wire)
	*wire = (*wire)[:0]
	env, resp := bodyPool.Get().(*wireBuf), bodyPool.Get().(*wireBuf)
	defer env.release()
	defer resp.release()
	var pc *conn
	var run [maxRun]pending
	var sp splice
	// cause is what ended the connection, which every later message
	// fails with.
	var cause error
	for k := 0; ; {
		// Take messages until the run is full; at most the last one
		// taken goes past maxRunBytes.
		for k < maxRun && i < n && len(*wire) <= maxRunBytes {
			m := message(i)
			if m.To.Address != addr {
				break
			}
			p := &run[k]
			*p = pending{i: i, action: m.Action}
			if cause == nil {
				p.span = obs.SpanFromContext(m.Ctx)
				if p.err = sp.marshal(c, &m, p.span, env); p.err == nil && !validFieldValue(m.Action) {
					p.err = postError(m.Action, addr, errBadAction)
				}
				if p.err == nil {
					*wire = appendPost(*wire, dst, m.Action, env.Bytes(), false)
				}
			}
			p.end = len(*wire)
			i++
			k++
		}
		if k == 0 {
			break
		}
		// A request that took the run past maxRunBytes starts the next.
		s := k
		if k > 1 && run[k-1].end > maxRunBytes {
			s--
		}
		cut := run[s-1].end
		if cause == nil && cut > 0 {
			if pc == nil {
				pc, cause = t.checkout(ctx, dst.key, timeout)
			}
			if cause == nil {
				if c.traceConns {
					countDeliveryConns(pc.reused, written(run[:s]))
					pc.reused = true
				}
				if _, err := pc.nc.Write((*wire)[:cut]); err != nil {
					cause = pc.ctxErr(err)
				}
			}
		}
		for j := range run[:s] {
			p := &run[j]
			switch {
			case p.err != nil:
				done(p.i, p.err)
			case cause != nil:
				done(p.i, postError(p.action, addr, cause))
			default:
				var err error
				err, cause = readReply(pc, p, resp, addr, read)
				done(p.i, err)
			}
		}
		// Carry the rest of the run over to the next.
		*wire = append((*wire)[:0], (*wire)[cut:]...)
		k = copy(run[:], run[s:k])
		for j := range run[:k] {
			run[j].end -= cut
		}
	}
	if pc != nil {
		pc.release(cause == nil && pc.reusable())
	}
	return i
}

// written counts the requests of a run that were written.
func written(run []pending) int {
	n := 0
	for _, p := range run {
		if p.err == nil {
			n++
		}
	}
	return n
}

// readReply reads the reply to p's request from pc into resp. It
// returns p's outcome and, when the connection can carry no further
// reply, the cause the later messages fail with.
func readReply(pc *conn, p *pending, resp *wireBuf, addr string, read readFunc) (err, cause error) {
	if err := pc.nextReply(false); err != nil {
		err = pc.ctxErr(err)
		return postError(p.action, addr, err), hungUp(err)
	}
	resp.Reset()
	if err := resp.readFrom(reply{pc}); err != nil {
		return fmt.Errorf("container: read response: %w", err), hungUp(err)
	}
	err = read(resp.Bytes(), pc.status, p.span)
	if !pc.reusable() {
		return err, io.ErrUnexpectedEOF
	}
	if pc.timeout > 0 {
		pc.arm()
	}
	return err, nil
}

// hungUp is what the requests written behind a reply that failed with
// err fail with: the same deadline or cancellation, or else what an
// exchange reports when its peer hangs up before replying.
func hungUp(err error) error {
	if err == context.DeadlineExceeded || err == context.Canceled {
		return err
	}
	return io.ErrUnexpectedEOF
}

func (c *Client) callEnvelope(ctx context.Context, epr wsa.EPR, action string, body *xmlutil.Element) (*soap.Envelope, error) {
	span := obs.SpanFromContext(ctx)
	var respEnv *soap.Envelope
	err := c.exchange(ctx, span, &Message{To: epr, Action: action, Body: body}, func(resp []byte, status int, _ *obs.Span) error {
		// soap.Parse copies what it keeps.
		env, err := soap.Parse(resp)
		if err != nil {
			return fmt.Errorf("container: response (HTTP %d): %w", status, err)
		}
		respEnv = env
		return nil
	})
	if err != nil {
		return nil, err
	}
	if span != nil {
		span.SetRelatesTo(wsa.Extract(respEnv).RelatesTo)
	}
	if respEnv.IsFault() {
		return nil, respEnv.Fault
	}
	if c.Verifier != nil {
		if _, err := c.Verifier.Verify(respEnv); err != nil {
			return nil, fmt.Errorf("container: response verification: %w", err)
		}
	}
	return respEnv, nil
}

// checkAck reads a one-way exchange's acknowledgement in place: parsed
// over the response buffer into the parser's reused arena, with only a
// fault and the RelatesTo for the deliver span copied out before the
// tree is dropped. Errors read as callEnvelope's.
func checkAck(data []byte, status int, span *obs.Span) error {
	var fault *soap.Fault
	var envErr error
	err := xmlutil.ParseInPlace(data, func(root *xmlutil.Element) {
		env, err := soap.FromElement(root)
		if err != nil {
			envErr = err // formatted, so it aliases nothing
			return
		}
		if h := env.Header(wsa.NS, "RelatesTo"); span != nil && h != nil {
			span.SetRelatesTo(strings.Clone(h.TrimText()))
		}
		if f := env.Fault; f != nil {
			fault = &soap.Fault{Code: strings.Clone(f.Code), Reason: strings.Clone(f.Reason), Actor: strings.Clone(f.Actor)}
			if f.Detail != nil {
				// Marshal → Parse reproduces any tree Parse accepts
				// (FuzzParse), and Parse copies its input.
				fault.Detail, envErr = xmlutil.Parse(f.Detail.Marshal())
			}
		}
	})
	if err != nil {
		err = fmt.Errorf("soap: %w", err)
	} else {
		err = envErr
	}
	if err != nil {
		return fmt.Errorf("container: response (HTTP %d): %w", status, err)
	}
	if fault != nil {
		return fault
	}
	return nil
}

// marshal stamps and signs m's envelope, recording its MessageID on
// span, and marshals it into buf.
func (c *Client) marshal(m *Message, span *obs.Span, buf *wireBuf) error {
	if m.To.Address == "" {
		return fmt.Errorf("container: call to empty EPR address")
	}
	env := soap.New(m.Body)
	env.AddHeader(m.Headers...)
	// Record the outbound MessageID on the calling span (a deliver span
	// during notification fan-out, a handler span for nested calls): the
	// receiving container's dispatch root records the same ID, which is
	// how obs.Stitch joins the two process-local traces.
	span.SetMessageID(wsa.Stamp(env, m.To, m.Action))
	if c.Signer != nil {
		if err := c.Signer.Sign(env); err != nil {
			return err
		}
	}
	buf.Reset()
	env.MarshalTo(&buf.Buffer)
	return nil
}

// splice renders the requests of a pipelined run, each the bytes
// Client.marshal writes for it. A request that repeats the last one
// rendered in full in all but its EPR's reference headers (the same
// action to the same address, and the same extra header blocks and body
// elements) is rendered in full once more, as a template
// (wsa.StampTemplate). Each later request like it is written as the
// template's bytes around its own MessageID and reference headers
// (wsa.Restamp), unless the template refuses them. A signing client
// renders every request in full: each signature covers its own
// timestamp.
type splice struct {
	last Message           // the last request rendered in full; a run's addresses are never ""
	t    *xmlutil.Template // rendered from a request like last
}

// marshal renders m into buf, recording its MessageID on span.
func (s *splice) marshal(c *Client, m *Message, span *obs.Span, buf *wireBuf) error {
	if c.Signer != nil || m.To.Address != s.last.To.Address || m.Action != s.last.Action ||
		m.Body != s.last.Body || !slices.Equal(m.Headers, s.last.Headers) {
		if s.t == nil {
			s.last = *m
		}
		return c.marshal(m, span, buf)
	}
	buf.Reset()
	var mid string
	if s.t == nil {
		env := soap.New(m.Body)
		env.AddHeader(m.Headers...)
		mid, s.t = wsa.StampTemplate(env, m.To, m.Action, &buf.Buffer)
	} else if mid = wsa.Restamp(s.t, &buf.Buffer, m.To); mid == "" {
		return c.marshal(m, span, buf)
	}
	span.SetMessageID(mid)
	return nil
}

// exchange sends m in an exchange of its own, reads the whole response
// into a pooled buffer, and returns what read makes of it; the buffer
// is reused once read returns.
func (c *Client) exchange(ctx context.Context, span *obs.Span, m *Message, read readFunc) error {
	// The request marshals straight into a pooled buffer.
	buf := bodyPool.Get().(*wireBuf)
	if err := c.marshal(m, span, buf); err != nil {
		buf.release()
		return err
	}
	hc := c.httpClient()
	if hc.Timeout > 0 {
		// What http.Client does with Timeout, for the transport call
		// below: the deadline covers the exchange and the body read.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	status, reply, err := c.send(ctx, m.To.Address, m.Action, buf.Bytes())
	// The transport and its wrappers run the exchange on this goroutine,
	// so once send returns nothing holds the request bytes.
	buf.release()
	if err != nil {
		return err
	}
	resp := bodyPool.Get().(*wireBuf)
	resp.Reset()
	defer resp.release()
	err = resp.readFrom(reply)
	// Closing before the reply is read hands the connection back first.
	reply.Close()
	if err != nil {
		return fmt.Errorf("container: read response: %w", err)
	}
	return read(resp.Bytes(), status, span)
}

// send POSTs env, a SOAP envelope for action, to addr and returns the
// reply's status and body. SOAP follows no redirects, so the transport
// is called directly: http.Client.Do would copy the headers for
// redirect handling on every call. The container's own transport takes
// the address straight from the call; a transport wrapped in an
// http.RoundTripper is handed an http.Request, which reaches the
// container transport's RoundTrip. A refused address fails with
// parseAddress's error; exchange errors read as Do's.
func (c *Client) send(ctx context.Context, addr, action string, env []byte) (int, io.ReadCloser, error) {
	dst, err := parseAddress(addr)
	if err != nil {
		return 0, nil, err
	}
	if t := c.ownTransport(); t != nil {
		status, body, err := t.post(ctx, dst, action, env, c.closeConns, c.traceConns)
		if err != nil {
			return 0, nil, postError(action, addr, err)
		}
		return status, body, nil
	}
	if c.traceConns {
		ctx = context.WithValue(ctx, countConnsKey{}, true)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr, bytes.NewReader(env))
	if err != nil {
		return 0, nil, fmt.Errorf("container: build request: %w", err)
	}
	// Keys already canonical, as Header.Set would make them.
	req.Header["Content-Type"] = xmlContentType
	req.Header["Soapaction"] = []string{action}
	req.Close = c.closeConns
	resp, err := c.HTTP.Transport.RoundTrip(req)
	if err != nil {
		return 0, nil, postError(action, addr, err)
	}
	return resp.StatusCode, resp.Body, nil
}

// postError is a failed exchange's error, as http.Client.Do words it.
func postError(action, addr string, err error) error {
	return fmt.Errorf("container: %s: %w", action, &url.Error{Op: "Post", URL: addr, Err: err})
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &defaultHTTP
}

// defaultHTTP is the client of a Client built without NewClient.
var defaultHTTP = http.Client{Transport: defaultTransport}

// ownTransport returns the container transport c's exchanges run on,
// or nil when c's transport is wrapped in another http.RoundTripper.
func (c *Client) ownTransport() *transport {
	rt := c.httpClient().Transport
	if rt == nil {
		return defaultTransport
	}
	t, _ := rt.(*transport)
	return t
}

// DeliveryMode selects how the notification delivery paths manage
// connections — the axis the paper's "TCP vs. HTTP issue" (§4.1.3)
// turns on.
type DeliveryMode int

const (
	// DeliveryPooled (the default) keeps delivery connections alive
	// between notifications, so steady-state fan-out pays no handshake.
	DeliveryPooled DeliveryMode = iota
	// DeliveryPerMessage closes the connection after every delivery,
	// reproducing the period-faithful one-shot consumer HTTP servers
	// the paper measured. The experiment harness pins this mode so the
	// Fig 2/3 reproductions keep the paper's connection behavior.
	DeliveryPerMessage
)

// String names the mode as benchmark output labels it.
func (m DeliveryMode) String() string {
	if m == DeliveryPerMessage {
		return "permessage"
	}
	return "pooled"
}

// countDeliveryConns counts n deliveries written on one connection: the
// first as a dial unless the connection was reused, the rest as reuses.
func countDeliveryConns(reused bool, n int) {
	if !reused {
		obs.DeliveryConnsDialed.Inc()
		n--
	}
	obs.DeliveryConnsReused.Add(int64(n))
}

// ForDelivery returns a client configured for the outbound
// notification path in the given mode. Both modes account connection
// dials and reuses into the shared delivery metrics; DeliveryPooled
// rides the base client's idle pool, DeliveryPerMessage closes the
// connection after every exchange. That models the 2005
// notification-consumer HTTP path: WSRF.NET's "custom HTTP server that
// clients include" accepts one-shot connections, so every
// WS-Notification delivery pays connection setup — the "TCP vs. HTTP
// issue" behind the paper's Notify results (§4.1.3), in contrast to the
// Plumbwork SoapReceiver's persistent raw-TCP channel. Delivery is
// one-way: the consumer's acknowledgement carries nothing to verify and
// is unsigned, so the returned client keeps signing requests but
// verifies no responses.
func (c *Client) ForDelivery(mode DeliveryMode) *Client {
	hc := *c.httpClient()
	cp := *c
	cp.HTTP = &hc
	cp.Verifier = nil
	cp.traceConns = true
	if mode == DeliveryPerMessage {
		cp.closeConns = true
	}
	return &cp
}

// WrapConns returns a copy of c whose transport wraps each connection
// it dials with wrap, once any TLS handshake is done, outside the
// wrapper the client's Link installed. The copy has a pool of its own,
// so no connection dialed unwrapped serves it. c's transport must be
// the container's own (nil: the shared one).
func (c *Client) WrapConns(wrap func(net.Conn) net.Conn) *Client {
	hc := *c.httpClient()
	base := c.ownTransport()
	if base == nil {
		panic(fmt.Sprintf("container: WrapConns on a client whose transport is a %T", hc.Transport))
	}
	t := newTransport(base.tls, base.maxIdle)
	t.dial, t.wrap = base.dial, wrap
	if inner := base.wrap; inner != nil {
		t.wrap = func(nc net.Conn) net.Conn { return wrap(inner(nc)) }
	}
	hc.Transport = t
	cp := *c
	cp.HTTP = &hc
	return &cp
}

// WithTimeout returns a client whose exchanges abort after d — the
// per-delivery cap the notification fan-out paths use so one stalled
// consumer cannot hold a worker (and with it the batch) indefinitely.
// On the container's own transport a pipelined delivery arms it as a
// connection deadline: it bounds the dial, and the wait for each reply
// from the write or the reply before. A non-positive d returns the
// client unchanged.
func (c *Client) WithTimeout(d time.Duration) *Client {
	if d <= 0 {
		return c
	}
	hc := *c.httpClient()
	hc.Timeout = d
	cp := *c
	cp.HTTP = &hc
	return &cp
}
