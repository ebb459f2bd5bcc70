package container

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"net/url"
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
	// HTTP or Transport uses a shared one.
	HTTP *http.Client
	// Signer signs requests (X.509 scenarios); nil otherwise.
	Signer *wssec.Signer
	// Verifier verifies signed responses; nil skips verification.
	Verifier *wssec.Verifier

	// traceConns counts each exchange's connection as a delivery dial
	// or reuse (set by ForDelivery).
	traceConns bool
}

// ClientConfig assembles a Client for one experimental scenario.
type ClientConfig struct {
	Mode SecurityMode
	// Link models the network between client and service.
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
	c := &Client{HTTP: &http.Client{Transport: cfg.Link.Transport(newTransport(tlsCfg, pool))}}
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
// back as a *soap.Fault error, as from Call. The acknowledgement
// carries nothing else the sender uses and is unsigned, so it is
// checked in place, without building an envelope that outlives the
// call, and never verified; callers deliver through a ForDelivery
// client, which carries no Verifier.
func (c *Client) Deliver(ctx context.Context, epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element) error {
	span := obs.SpanFromContext(ctx)
	return c.exchange(ctx, span, epr, action, headers, body, func(resp []byte, status int) error {
		return checkAck(resp, status, span)
	})
}

func (c *Client) callEnvelope(ctx context.Context, epr wsa.EPR, action string, body *xmlutil.Element) (*soap.Envelope, error) {
	span := obs.SpanFromContext(ctx)
	var respEnv *soap.Envelope
	err := c.exchange(ctx, span, epr, action, nil, body, func(resp []byte, status int) error {
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

// exchange stamps and sends one request, reads the whole response into
// a pooled buffer, and returns what read makes of it; the buffer is
// reused once read returns.
func (c *Client) exchange(ctx context.Context, span *obs.Span, epr wsa.EPR, action string, headers []*xmlutil.Element, body *xmlutil.Element,
	read func(resp []byte, status int) error) error {
	if epr.Address == "" {
		return fmt.Errorf("container: call to empty EPR address")
	}
	env := soap.New(body)
	env.AddHeader(headers...)
	// Record the outbound MessageID on the calling span (a deliver span
	// during notification fan-out, a handler span for nested calls): the
	// receiving container's dispatch root records the same ID, which is
	// how obs.Stitch joins the two process-local traces.
	span.SetMessageID(wsa.Stamp(env, epr, action))
	if c.Signer != nil {
		if err := c.Signer.Sign(env); err != nil {
			return err
		}
	}
	hc := c.httpClient()
	if hc.Timeout > 0 {
		// What http.Client does with Timeout, for the transport call
		// below: the deadline covers the exchange and the body read.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	if c.traceConns {
		ctx = withDeliveryTrace(ctx)
	}
	// The request marshals straight into a pooled buffer; bytes.NewReader
	// gives the transport a view of it.
	buf := bodyPool.Get().(*wireBuf)
	buf.Reset()
	env.MarshalTo(&buf.Buffer)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, epr.Address, bytes.NewReader(buf.Bytes()))
	if err != nil {
		buf.release()
		return fmt.Errorf("container: build request: %w", err)
	}
	// Keys already canonical, as Header.Set would make them.
	req.Header["Content-Type"] = xmlContentType
	req.Header["Soapaction"] = []string{action}
	req.ContentLength = int64(buf.Len())
	// SOAP follows no redirects, so the transport is called directly:
	// http.Client.Do would copy the headers for redirect handling on
	// every call. The error reads as Do's.
	rt := hc.Transport
	if rt == nil {
		rt = defaultTransport
	}
	httpResp, err := rt.RoundTrip(req)
	// The transport and its wrappers run the exchange on this goroutine,
	// so once RoundTrip returns nothing holds the request bytes.
	buf.release()
	if err != nil {
		return fmt.Errorf("container: %s: %w", action, &url.Error{Op: "Post", URL: req.URL.String(), Err: err})
	}
	resp := bodyPool.Get().(*wireBuf)
	resp.Reset()
	defer resp.release()
	err = resp.readFrom(httpResp.Body)
	// Closing before the reply is read hands the connection back first.
	httpResp.Body.Close()
	if err != nil {
		return fmt.Errorf("container: read response: %w", err)
	}
	return read(resp.Bytes(), httpResp.StatusCode)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &defaultHTTP
}

// defaultHTTP is the client of a Client built without NewClient.
var defaultHTTP = http.Client{Transport: defaultTransport}

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

// deliveryTrace counts connection establishment versus reuse on the
// delivery path. Attaching the shared trace allocates only the
// per-request context, keeping per-delivery allocations flat.
var deliveryTrace = &httptrace.ClientTrace{
	GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			obs.DeliveryConnsReused.Inc()
		} else {
			obs.DeliveryConnsDialed.Inc()
		}
	},
}

// withDeliveryTrace attaches deliveryTrace to ctx. httptrace composes a
// new trace with one already in the context by rewriting the new
// trace's hooks, so when the caller brought its own trace the
// composition goes into a per-call copy: rewriting the shared trace
// would race between fan-out workers and leave the caller's hooks
// firing on every later delivery.
func withDeliveryTrace(ctx context.Context) context.Context {
	trace := deliveryTrace
	if httptrace.ContextClientTrace(ctx) != nil {
		cp := *deliveryTrace
		trace = &cp
	}
	return httptrace.WithClientTrace(ctx, trace)
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
	if mode == DeliveryPerMessage {
		base := hc.Transport
		if base == nil {
			base = defaultTransport
		}
		hc.Transport = closingTransport{base}
	}
	cp := *c
	cp.HTTP = &hc
	cp.Verifier = nil
	cp.traceConns = true
	return &cp
}

// WithTimeout returns a client whose exchanges abort after d — the
// per-delivery cap the notification fan-out paths use so one stalled
// consumer cannot hold a worker (and with it the batch) indefinitely.
// A non-positive d returns the client unchanged.
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

type closingTransport struct{ base http.RoundTripper }

func (t closingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Close = true
	return t.base.RoundTrip(req)
}
