// Package container is the "resource-aware container" of paper
// Figure 1, shared by both software stacks: requests enter, the
// Dispatch mechanism routes them to the correct service by URL path
// and WS-Addressing Action, the Security/Policy Handler authenticates
// the client and verifies message signatures, the service code runs
// against its storage, and the response flows back out through the
// security handler (which signs it when message-level security is on).
//
// The paper built this on ASP.NET/IIS with WSE; here the same
// architecture sits on the container's own HTTP/1.1 server and client
// (server.go, transport.go): one goroutine per inbound connection
// serves its requests in turn, and the calling goroutine runs each
// outbound exchange. Lifetime management and the
// notification/eventing producer are "independent activities within
// the container" (paper §3) and live in the wsrf/rl, wsn, and wse
// packages, which register themselves as services and background
// tasks here.
package container

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"

	"altstacks/internal/obs"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wssec"
	"altstacks/internal/xmlutil"
)

// Pipeline-level metrics: one counter per inbound request and one per
// fault response, alongside the dispatch/verify/handler/serialize
// stage histograms observed inline below.
var (
	requestsTotal = obs.NewCounter("ogsa_container_requests_total", "",
		"SOAP requests dispatched by the container")
	faultsTotal = obs.NewCounter("ogsa_container_faults_total", "",
		"SOAP fault responses written by the container")
)

// RequestCounters exposes the pipeline's request and fault counters so
// the slo layer can build an availability objective over them without
// reaching into this package's internals.
func RequestCounters() (requests, faults *obs.Counter) {
	return requestsTotal, faultsTotal
}

// SecurityMode selects the paper's three security scenarios.
type SecurityMode int

const (
	// SecurityNone: plain HTTP, unauthenticated (Figure 2).
	SecurityNone SecurityMode = iota
	// SecurityTLS: HTTPS transport security (Figure 3).
	SecurityTLS
	// SecuritySign: X.509 message-level signing of request and
	// response (Figure 4).
	SecuritySign
)

// String names the mode as the figures caption it.
func (m SecurityMode) String() string {
	switch m {
	case SecurityTLS:
		return "https"
	case SecuritySign:
		return "x509-signing"
	default:
		return "no-security"
	}
}

// Ctx carries one request through a service action.
type Ctx struct {
	// Context is the request's context: it is canceled when the
	// container closes, and handlers must thread it into any delivery
	// work they trigger (notifications, retries) so that work stays
	// bounded by the container that runs it. A client that hangs up
	// mid-request does not cancel it: no reader watches the socket while
	// the handler runs, so the hang-up is noticed when the reply is
	// written.
	Context context.Context
	// Envelope is the parsed request.
	Envelope *soap.Envelope
	// Info holds the WS-Addressing message information headers.
	Info wsa.Info
	// Peer is the verified signer certificate under SecuritySign, nil
	// otherwise. Services authorize against Peer.Subject (the X.509 DN
	// Grid-in-a-Box accounts are keyed by).
	Peer *x509.Certificate
}

// PeerDN returns the authenticated subject DN or "" when anonymous.
func (c *Ctx) PeerDN() string {
	if c.Peer == nil {
		return ""
	}
	return c.Peer.Subject.String()
}

// ActionFunc handles one WS-Addressing action, returning the response
// body element. Returning a *soap.Fault (possibly wrapped) produces a
// SOAP fault response; other errors become Server faults.
type ActionFunc func(*Ctx) (*xmlutil.Element, error)

// Service is one endpoint: a URL path and its action table.
type Service struct {
	// Path is the container-relative endpoint path, e.g. "/counter".
	Path string
	// Actions maps WS-Addressing Action URIs to handlers.
	Actions map[string]ActionFunc
	// Understood lists extra header names ("namespace local") the
	// service understands for soap:mustUnderstand accounting.
	Understood map[string]bool
}

// Container hosts services over HTTP or HTTPS.
type Container struct {
	Mode SecurityMode
	// Signer signs responses under SecuritySign.
	Signer *wssec.Signer
	// Verifier authenticates requests under SecuritySign.
	Verifier *wssec.Verifier
	// TLS carries the server credentials under SecurityTLS.
	TLS *tls.Config

	// mu is read-locked on every request for the service lookup and
	// write-locked only by wiring-time Register/OnClose/Close, so
	// concurrent requests never serialize on routing.
	mu       sync.RWMutex
	services map[string]*Service
	srv      server
	baseURL  string
	closers  []func()
}

// New returns an empty container in the given security mode.
func New(mode SecurityMode) *Container {
	c := &Container{Mode: mode, services: map[string]*Service{}}
	c.srv.ctx, c.srv.cancel = context.WithCancel(context.Background())
	return c
}

// Register adds a service endpoint. It panics on duplicate paths —
// registration is a wiring-time programming error, not a runtime
// condition.
func (c *Container) Register(svc *Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if svc.Path == "" || svc.Path[0] != '/' {
		panic(fmt.Sprintf("container: bad service path %q", svc.Path))
	}
	if _, dup := c.services[svc.Path]; dup {
		panic(fmt.Sprintf("container: duplicate service path %q", svc.Path))
	}
	c.services[svc.Path] = svc
}

// OnClose registers a shutdown hook (lifetime sweepers, notification
// dispatchers) run by Close.
func (c *Container) OnClose(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closers = append(c.closers, fn)
}

// Start begins serving on a fresh loopback port and returns the base
// URL (http://127.0.0.1:port or https://...).
func (c *Container) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("container: listen: %w", err)
	}
	scheme := "http"
	if c.Mode == SecurityTLS {
		if c.TLS == nil {
			ln.Close()
			return "", fmt.Errorf("container: SecurityTLS requires a TLS config")
		}
		ln = tls.NewListener(ln, c.TLS)
		scheme = "https"
	}
	c.baseURL = fmt.Sprintf("%s://%s", scheme, ln.Addr().String())
	c.serve(ln)
	return c.baseURL, nil
}

// BaseURL returns the serving address ("" before Start).
func (c *Container) BaseURL() string { return c.baseURL }

// EPR returns a bare endpoint reference for a registered service path.
func (c *Container) EPR(path string) wsa.EPR { return wsa.NewEPR(c.baseURL + path) }

// Close cancels every request's context, closes the listener and every
// connection, waits for the serving goroutines to return, and runs the
// shutdown hooks.
func (c *Container) Close() {
	c.srv.close()
	c.mu.Lock()
	hooks := c.closers
	c.closers = nil
	c.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

const (
	// maxRequestBody bounds inbound message size.
	maxRequestBody = 16 << 20
	// maxPooledBody keeps only ordinarily-sized buffers in the pool; a
	// rare near-limit message must not pin 16 MiB per pool slot.
	maxPooledBody = 1 << 20
)

// bodyPool recycles message body buffers for both directions: request
// reads (soap.Parse copies the bytes it keeps, so the buffer can be
// reused as soon as the parse returns) and response serialization (the
// reply is copied behind its head into a wire buffer, so the body
// buffer is free once that copy is made).
var bodyPool = sync.Pool{New: func() any { return new(wireBuf) }}

// wireBuf is a pooled message buffer with the bounded reader that
// fills it, so a read allocates no io.LimitReader.
type wireBuf struct {
	bytes.Buffer
	lim io.LimitedReader
}

func (b *wireBuf) release() {
	if b.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// readFrom reads r to EOF, keeping at most maxRequestBody bytes.
func (b *wireBuf) readFrom(r io.Reader) error { return b.readN(r, maxRequestBody) }

// readN reads n bytes from r, or fewer if r ends first.
func (b *wireBuf) readN(r io.Reader, n int64) error {
	b.lim = io.LimitedReader{R: r, N: n}
	_, err := b.ReadFrom(&b.lim)
	b.lim.R = nil
	return err
}

// xmlContentType is the Content-Type of every request, in the form
// http.Header stores: the transport only reads header values, so every
// request head shares this one slice.
var xmlContentType = []string{"text/xml; charset=utf-8"}

// serveHTTP answers one request read off w's connection: its path, its
// method (POST or not) and its body, which is valid until serveHTTP
// returns. The reply is written after serveHTTP returns, so the
// dispatch span does not hold the socket write.
func (c *Container) serveHTTP(w *srvConn, path []byte, post bool, body []byte) {
	c.mu.RLock()
	svc := c.services[string(path)]
	c.mu.RUnlock()
	if svc == nil {
		w.reply(http.StatusNotFound, false, notFoundText)
		return
	}
	if !post {
		w.reply(http.StatusMethodNotAllowed, false, postOnlyText)
		return
	}
	// The dispatch span is the trace root: every downstream stage
	// (verify, handler, storage, serialize, deliver) parents under the
	// context minted here.
	t0 := obs.Start()
	reqCtx, span := obs.StartSpan(c.srv.ctx, "container.dispatch")
	span.SetAttr("path", svc.Path)
	requestsTotal.Inc()
	defer func() {
		obs.StageDispatch.ObserveSinceSpan(t0, span)
		span.End()
	}()
	env, err := soap.Parse(body)
	if err != nil {
		span.Fail(err)
		c.writeFault(reqCtx, w, "", faultOf(err))
		return
	}
	info := wsa.Extract(env)
	// The inbound MessageID is the cross-process correlation key: when
	// this request is a notification delivery, the sender's deliver span
	// carries the same ID and obs.Stitch joins the two traces.
	span.SetMessageID(info.MessageID)
	span.SetAttr("action", info.Action)
	resp, fault := c.dispatch(reqCtx, svc, env, info)
	if fault != nil {
		span.Fail(fault)
		c.writeFault(reqCtx, w, info.MessageID, fault)
		return
	}
	c.writeResponse(reqCtx, w, http.StatusOK, resp)
}

// containerUnderstood names the header blocks the container processes
// itself, whatever the service.
var containerUnderstood = map[string]bool{wssec.SecurityHeaderName: true}

// dispatch runs the security handler and the action handler, mirroring
// the Figure 1 pipeline.
func (c *Container) dispatch(reqCtx context.Context, svc *Service, env *soap.Envelope, info wsa.Info) (*soap.Envelope, *soap.Fault) {
	ctx := &Ctx{Context: reqCtx, Envelope: env, Info: info}
	// Security/Policy Handler.
	if c.Mode == SecuritySign {
		if c.Verifier == nil {
			return nil, soap.Faultf(soap.FaultServer, "container misconfigured: no verifier")
		}
		vt := obs.Start()
		vspan := obs.ChildSpan(reqCtx, "wssec.verify")
		cert, err := c.Verifier.Verify(env)
		obs.StageVerify.ObserveSinceSpan(vt, vspan)
		if err != nil {
			vspan.Fail(err)
			vspan.End()
			return nil, soap.Faultf(soap.FaultClient, "security: %v", err)
		}
		vspan.SetAttr("subject", cert.Subject.String())
		vspan.End()
		ctx.Peer = cert
	}
	// mustUnderstand accounting: addressing headers, the security
	// header, EPR reference properties (never flagged), and anything
	// the service declares.
	if err := env.CheckMustUnderstand(containerUnderstood, svc.Understood); err != nil {
		return nil, faultOf(err)
	}
	handler, ok := svc.Actions[info.Action]
	if !ok {
		return nil, soap.Faultf(soap.FaultClient, "service %s does not support action %q", svc.Path, info.Action)
	}
	// Handler span: storage and delivery spans triggered by the service
	// parent under it, so ctx.Context is rewrapped with the span.
	ht := obs.Start()
	hctx, hspan := obs.StartSpan(reqCtx, "handler")
	ctx.Context = hctx
	respBody, err := handler(ctx)
	obs.StageHandler.ObserveSinceSpan(ht, hspan)
	if err != nil {
		hspan.Fail(err)
		hspan.End()
		return nil, faultOf(err)
	}
	hspan.End()
	resp := soap.New(respBody)
	wsa.StampReply(resp, info.MessageID, info.Action+"Response")
	if c.Mode == SecuritySign {
		if err := c.Signer.Sign(resp); err != nil {
			return nil, soap.Faultf(soap.FaultServer, "response signing: %v", err)
		}
	}
	return resp, nil
}

func (c *Container) writeFault(ctx context.Context, w *srvConn, relatesTo string, f *soap.Fault) {
	faultsTotal.Inc()
	env := &soap.Envelope{Fault: f}
	wsa.StampReply(env, relatesTo, wsa.NS+"/fault")
	if c.Mode == SecuritySign && c.Signer != nil {
		// Sign faults too: the paper's X.509 scenarios sign "request and
		// response" uniformly.
		if err := c.Signer.Sign(env); err != nil {
			env = &soap.Envelope{Fault: soap.Faultf(soap.FaultServer, "fault signing failed")}
		}
	}
	status := http.StatusInternalServerError
	if f.Code == soap.FaultClient {
		status = http.StatusBadRequest
	}
	c.writeResponse(ctx, w, status, env)
}

// writeResponse marshals env into a pooled buffer and makes it the
// reply's body.
func (c *Container) writeResponse(ctx context.Context, w *srvConn, status int, env *soap.Envelope) {
	st := obs.Start()
	sspan := obs.ChildSpan(ctx, "xmlutil.serialize")
	buf := bodyPool.Get().(*wireBuf)
	buf.Reset()
	env.MarshalTo(&buf.Buffer)
	obs.StageSerialize.ObserveSinceSpan(st, sspan)
	if sspan != nil {
		sspan.SetAttr("bytes", strconv.Itoa(buf.Len()))
	}
	sspan.End()
	w.reply(status, true, buf.Bytes())
	buf.release()
}

// faultOf coerces an error into a SOAP fault, preserving explicit faults.
func faultOf(err error) *soap.Fault {
	if f, ok := err.(*soap.Fault); ok {
		return f
	}
	return soap.Faultf(soap.FaultServer, "%v", err)
}
