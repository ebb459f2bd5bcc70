package container

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

// These tests exercise the container's behavior under hostile or
// broken input — the request surface an open grid endpoint faces.

func rawPost(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

func TestMalformedXMLGetsFault(t *testing.T) {
	c, _ := startPlain(t)
	resp, body := rawPost(t, c.BaseURL()+"/echo", "<this is not xml")
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("status = %d for malformed XML", resp.StatusCode)
	}
	env, err := soap.Parse([]byte(body))
	if err != nil || !env.IsFault() {
		t.Fatalf("expected a SOAP fault, got %q (%v)", body, err)
	}
}

func TestNonEnvelopeXMLGetsFault(t *testing.T) {
	c, _ := startPlain(t)
	resp, body := rawPost(t, c.BaseURL()+"/echo", "<root/>")
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	env, err := soap.Parse([]byte(body))
	if err != nil || !env.IsFault() {
		t.Fatalf("expected a SOAP fault, got %q", body)
	}
}

func TestGetMethodRejected(t *testing.T) {
	c, _ := startPlain(t)
	resp, err := http.Get(c.BaseURL() + "/echo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestSOAP12EnvelopeVersionMismatch(t *testing.T) {
	c, _ := startPlain(t)
	doc := `<e:Envelope xmlns:e="http://www.w3.org/2003/05/soap-envelope"><e:Body/></e:Envelope>`
	_, body := rawPost(t, c.BaseURL()+"/echo", doc)
	env, err := soap.Parse([]byte(body))
	if err != nil || !env.IsFault() || env.Fault.Code != soap.FaultVersionMismatch {
		t.Fatalf("expected VersionMismatch fault, got %q", body)
	}
}

func TestUnknownMustUnderstandHeaderFaults(t *testing.T) {
	c, _ := startPlain(t)
	env := soap.New(xmlutil.NewText("urn:echo", "Echo", "x"))
	env.AddHeader(
		xmlutil.NewText("urn:echo", "Action", ""), // not a wsa header: ignored
		xmlutil.New("urn:exotic", "Transaction").SetAttr(soap.NS, "mustUnderstand", "1"),
		xmlutil.NewText("http://schemas.xmlsoap.org/ws/2004/08/addressing", "Action", "urn:echo/Echo"),
	)
	_, body := rawPost(t, c.BaseURL()+"/echo", string(env.Marshal()))
	parsed, err := soap.Parse([]byte(body))
	if err != nil || !parsed.IsFault() || parsed.Fault.Code != soap.FaultMustUnderstand {
		t.Fatalf("expected MustUnderstand fault, got %q", body)
	}
}

func TestHandlerPanicSafety(t *testing.T) {
	// A panicking handler must not take down the server; serveConn's
	// deferred recover drops that connection only, and subsequent
	// requests succeed.
	c := New(SecurityNone)
	// The calls run on two connections' goroutines, which nothing the
	// race detector sees orders.
	var calls atomic.Int32
	c.Register(&Service{
		Path: "/flaky",
		Actions: map[string]ActionFunc{
			"urn:f/Do": func(ctx *Ctx) (*xmlutil.Element, error) {
				if calls.Add(1) == 1 {
					panic("handler bug")
				}
				return xmlutil.New("urn:f", "OK"), nil
			},
		},
	})
	if _, err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := NewClient(ClientConfig{})
	// First call crashes the handler goroutine.
	_, err := client.Call(c.EPR("/flaky"), "urn:f/Do", xmlutil.New("urn:f", "Do"))
	if err == nil {
		t.Fatal("panicking handler returned success")
	}
	// Second call must find a healthy server.
	if _, err := client.Call(c.EPR("/flaky"), "urn:f/Do", xmlutil.New("urn:f", "Do")); err != nil {
		t.Fatalf("server unhealthy after handler panic: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := startPlain(t)
	client := NewClient(ClientConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body := xmlutil.NewText("urn:echo", "Echo", fmt.Sprintf("g%d-%d", g, i))
				resp, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", body)
				if err != nil {
					errs <- err
					return
				}
				if got := resp.ChildText("urn:echo", "Said"); got != fmt.Sprintf("g%d-%d", g, i) {
					errs <- fmt.Errorf("cross-talk: got %q", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	c, _ := startPlain(t)
	// Body beyond the 16 MiB cap: the parse sees a truncated document
	// and the client gets a fault, not a hung or crashed server.
	huge := strings.Repeat("A", 17<<20)
	doc := `<s:Envelope xmlns:s="` + soap.NS + `"><s:Body><x>` + huge + `</x></s:Body></s:Envelope>`
	resp, body := rawPost(t, c.BaseURL()+"/echo", doc)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("oversized request accepted: %q", body[:100])
	}
	// And the server still works.
	client := NewClient(ClientConfig{})
	if _, err := client.Call(c.EPR("/echo"), "urn:echo/Echo", xmlutil.NewText("urn:echo", "Echo", "x")); err != nil {
		t.Fatalf("server unhealthy after oversized request: %v", err)
	}
}
