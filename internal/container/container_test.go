package container

import (
	"bufio"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/certs"
	"altstacks/internal/netlat"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/wssec"
	"altstacks/internal/xmlutil"
)

var (
	pkiOnce sync.Once
	ca      *certs.Authority
	svcID   *certs.Identity
	cliID   *certs.Identity
)

func pki(t testing.TB) (*certs.Authority, *certs.Identity, *certs.Identity) {
	t.Helper()
	pkiOnce.Do(func() {
		var err error
		if ca, err = certs.NewAuthority(); err != nil {
			panic(err)
		}
		if svcID, err = ca.Issue("svc", "127.0.0.1"); err != nil {
			panic(err)
		}
		if cliID, err = ca.Issue("client"); err != nil {
			panic(err)
		}
	})
	return ca, svcID, cliID
}

// echoService returns a service with one action that echoes its body
// content and reports the peer DN.
func echoService() *Service {
	return &Service{
		Path: "/echo",
		Actions: map[string]ActionFunc{
			"urn:echo/Echo": func(ctx *Ctx) (*xmlutil.Element, error) {
				resp := xmlutil.New("urn:echo", "EchoResponse")
				resp.Add(xmlutil.NewText("urn:echo", "Said", ctx.Envelope.Body.TrimText()))
				resp.Add(xmlutil.NewText("urn:echo", "Peer", ctx.PeerDN()))
				return resp, nil
			},
			"urn:echo/Fail": func(ctx *Ctx) (*xmlutil.Element, error) {
				return nil, soap.Faultf(soap.FaultClient, "deliberate failure")
			},
		},
	}
}

func startPlain(t *testing.T) (*Container, *Client) {
	t.Helper()
	c := New(SecurityNone)
	c.Register(echoService())
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, NewClient(ClientConfig{Mode: SecurityNone, Link: netlat.CoLocated})
}

func TestPlainCall(t *testing.T) {
	c, client := startPlain(t)
	body := xmlutil.NewText("urn:echo", "Echo", "hello")
	resp, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.ChildText("urn:echo", "Said"); got != "hello" {
		t.Fatalf("Said = %q", got)
	}
	if got := resp.ChildText("urn:echo", "Peer"); got != "" {
		t.Fatalf("anonymous call had peer %q", got)
	}
}

func TestFaultPropagation(t *testing.T) {
	c, client := startPlain(t)
	_, err := client.Call(c.EPR("/echo"), "urn:echo/Fail", xmlutil.New("urn:echo", "Fail"))
	f, ok := err.(*soap.Fault)
	if !ok {
		t.Fatalf("err = %v (%T), want *soap.Fault", err, err)
	}
	if f.Code != soap.FaultClient || f.Reason != "deliberate failure" {
		t.Fatalf("fault = %+v", f)
	}
}

func TestUnknownActionFaults(t *testing.T) {
	c, client := startPlain(t)
	_, err := client.Call(c.EPR("/echo"), "urn:echo/Nope", xmlutil.New("urn:echo", "Nope"))
	if err == nil || !strings.Contains(err.Error(), "does not support action") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownPath404(t *testing.T) {
	c, client := startPlain(t)
	_, err := client.Call(c.EPR("/missing"), "urn:echo/Echo", xmlutil.New("urn:echo", "Echo"))
	if err == nil {
		t.Fatal("call to unregistered path succeeded")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	c.Register(echoService())
}

func TestReplyHeadersRelateToRequest(t *testing.T) {
	c, _ := startPlain(t)
	client := NewClient(ClientConfig{})
	env, err := client.CallEnvelope(c.EPR("/echo"), "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "x"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := wsa.Extract(env)
	if err != nil {
		t.Fatal(err)
	}
	if info.RelatesTo == "" || !strings.HasPrefix(info.RelatesTo, "urn:uuid:") {
		t.Fatalf("RelatesTo = %q", info.RelatesTo)
	}
	if info.Action != "urn:echo/EchoResponse" {
		t.Fatalf("Action = %q", info.Action)
	}
}

// TestRepeatedAddressingHeaderRefused: a request that carries two
// Actions, the first for one handler and the second for another, gets
// a Client fault that names wsa:Action, and neither handler runs. A
// repeated RelatesTo, which may appear once per relationship type, is
// dispatched.
func TestRepeatedAddressingHeaderRefused(t *testing.T) {
	var echoes, fails atomic.Int32
	count := func(n *atomic.Int32) ActionFunc {
		return func(*Ctx) (*xmlutil.Element, error) { n.Add(1); return xmlutil.New("urn:echo", "Done"), nil }
	}
	c := New(SecurityNone)
	c.Register(&Service{Path: "/echo", Actions: map[string]ActionFunc{"urn:echo/Echo": count(&echoes), "urn:echo/Fail": count(&fails)}})
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	post := func(extra string) (int, *soap.Envelope) {
		req := strings.Replace(echoRequest("urn:echo/Echo", "hello"), "</wsa:Action>", "</wsa:Action>"+extra, 1)
		conn := dialPlain(t, c)
		if _, err := io.WriteString(conn, rawPostText("/echo", "", req)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env
	}
	status, env := post("<wsa:Action>urn:echo/Fail</wsa:Action>")
	if f := env.Fault; status != http.StatusBadRequest || f == nil || f.Code != soap.FaultClient || !strings.Contains(f.Reason, "wsa:Action") {
		t.Fatalf("two Actions: HTTP %d, fault %v; want a Client fault naming wsa:Action", status, f)
	}
	if echoes.Load() != 0 || fails.Load() != 0 {
		t.Fatalf("handlers ran on a refused request: Echo %d, Fail %d", echoes.Load(), fails.Load())
	}
	status, env = post("<wsa:RelatesTo>urn:uuid:a</wsa:RelatesTo><wsa:RelatesTo>urn:uuid:b</wsa:RelatesTo>")
	if status != http.StatusOK || env.IsFault() || echoes.Load() != 1 {
		t.Fatalf("two RelatesTo: HTTP %d, fault %v, Echo ran %d times; want it dispatched once", status, env.Fault, echoes.Load())
	}
}

func TestEPRReferencePropertiesReachService(t *testing.T) {
	c := New(SecurityNone)
	c.Register(&Service{
		Path: "/res",
		Actions: map[string]ActionFunc{
			"urn:r/Get": func(ctx *Ctx) (*xmlutil.Element, error) {
				id, ok := wsa.ResourceID(ctx.Envelope, "urn:r", "ResourceID")
				if !ok {
					return nil, soap.Faultf(soap.FaultClient, "no resource id")
				}
				return xmlutil.NewText("urn:r", "GotID", id), nil
			},
		},
	})
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := NewClient(ClientConfig{})
	epr := c.EPR("/res").WithProperty("urn:r", "ResourceID", "r-77")
	resp, err := client.Call(epr, "urn:r/Get", xmlutil.New("urn:r", "Get"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.TrimText() != "r-77" {
		t.Fatalf("resource id = %q", resp.TrimText())
	}
}

func TestTLSScenario(t *testing.T) {
	auth, sid, _ := pki(t)
	c := New(SecurityTLS)
	c.TLS = auth.ServerTLS(sid)
	c.Register(echoService())
	url, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !strings.HasPrefix(url, "https://") {
		t.Fatalf("url = %q", url)
	}
	client := NewClient(ClientConfig{Mode: SecurityTLS, TLS: auth.ClientTLS()})
	resp, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "tls"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ChildText("urn:echo", "Said") != "tls" {
		t.Fatalf("resp = %s", resp)
	}
	// A client that does not trust the CA must fail the handshake.
	bad := NewClient(ClientConfig{Mode: SecurityTLS})
	if _, err := bad.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.New("urn:echo", "Echo")); err == nil {
		t.Fatal("untrusting client connected over TLS")
	}
}

func TestSigningScenario(t *testing.T) {
	auth, sid, cid := pki(t)
	c := New(SecuritySign)
	c.Signer = wssec.NewSigner(sid)
	c.Verifier = wssec.NewVerifier(auth.Pool())
	c.Register(echoService())
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	client := NewClient(ClientConfig{
		Mode:     SecuritySign,
		Signer:   wssec.NewSigner(cid),
		Verifier: wssec.NewVerifier(auth.Pool()),
	})
	resp, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "signed"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ChildText("urn:echo", "Peer") != "CN=client,O=UVA Grid Repro" {
		t.Fatalf("peer = %q", resp.ChildText("urn:echo", "Peer"))
	}

	// Unsigned requests must be rejected in signing mode.
	anon := NewClient(ClientConfig{})
	_, err = anon.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.New("urn:echo", "Echo"))
	if err == nil || !strings.Contains(err.Error(), "security") {
		t.Fatalf("unsigned request: %v", err)
	}
}

func TestDistributedLinkAddsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c, _ := startPlain(t)
	co := NewClient(ClientConfig{Link: netlat.CoLocated})
	far := NewClient(ClientConfig{Link: netlat.Profile{Name: "slow", RTT: 30 * time.Millisecond}})
	body := func() *xmlutil.Element { return xmlutil.NewText("urn:echo", "Echo", "x") }

	// Warm both connections first.
	if _, err := co.Call(c.EPR("/echo"), "urn:echo/Echo", body()); err != nil {
		t.Fatal(err)
	}
	if _, err := far.Call(c.EPR("/echo"), "urn:echo/Echo", body()); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, _ = co.Call(c.EPR("/echo"), "urn:echo/Echo", body())
	coDur := time.Since(t0)
	t0 = time.Now()
	_, _ = far.Call(c.EPR("/echo"), "urn:echo/Echo", body())
	farDur := time.Since(t0)
	if farDur < coDur+20*time.Millisecond {
		t.Fatalf("distributed call (%v) not slower than co-located (%v)", farDur, coDur)
	}
}

func TestCloseRunsHooks(t *testing.T) {
	c := New(SecurityNone)
	c.Register(echoService())
	ran := false
	c.OnClose(func() { ran = true })
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if !ran {
		t.Fatal("OnClose hook did not run")
	}
}

func TestCallEmptyEPR(t *testing.T) {
	client := NewClient(ClientConfig{})
	if _, err := client.Call(wsa.EPR{}, "a", xmlutil.New("", "x")); err == nil {
		t.Fatal("call to empty EPR succeeded")
	}
}
