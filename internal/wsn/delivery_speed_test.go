package wsn

// Tests for the delivery-speed work: connection pooling on the notify
// path, and the Notify body on the wire, pinned by a golden file.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"

	"altstacks/internal/container"
	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// countingConsumer is a notification endpoint that counts the TCP
// connections opened to it — the instrument for distinguishing pooled
// from per-message delivery. It answers every POST with a well-formed
// NotifyResponse envelope.
func countingConsumer(t *testing.T) (wsa.EPR, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ack := soap.New(xmlutil.New(NSNT, "NotifyResponse")).Marshal()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Write(ack)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return wsa.NewEPR(srv.URL + "/consumer"), &conns
}

// TestDeliveryModeConnections is the pooling acceptance test: N
// notifications to one subscriber ride a single connection in the
// default pooled mode, and open one connection each in the
// paper-faithful per-message mode.
func TestDeliveryModeConnections(t *testing.T) {
	const notifies = 8
	for _, tc := range []struct {
		mode container.DeliveryMode
		want func(int64) bool
		desc string
	}{
		{container.DeliveryPooled, func(n int64) bool { return n == 1 }, "exactly 1"},
		{container.DeliveryPerMessage, func(n int64) bool { return n == notifies }, "one per notify"},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			p, _, client, producer := startProducerDB(t)
			p.Mode = tc.mode
			epr, conns := countingConsumer(t)
			if _, err := Subscribe(client, producer, epr,
				SubscribeOptions{Topic: Concrete("job/exited")}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < notifies; i++ {
				if n, err := p.Notify("job/exited", jobExited(i)); err != nil || n != 1 {
					t.Fatalf("notify %d: n=%d err=%v", i, n, err)
				}
			}
			if got := conns.Load(); !tc.want(got) {
				t.Fatalf("%s mode: %d connections for %d notifies, want %s",
					tc.mode, got, notifies, tc.desc)
			}
		})
	}
}

// TestGoldenNotifyBody captures the SOAP body of the HTTP POST a
// consumer receives for one wrapped notification and compares it, with
// the consumer's port and the fresh MessageID masked, against
// testdata/notify-body.xml.
func TestGoldenNotifyBody(t *testing.T) { checkGoldenNotifyBodies(t, 1) }

// TestGoldenNotifyBodyRun is TestGoldenNotifyBody with three
// subscriptions on the consumer: one pipelined run, whose later
// requests are spliced into the second's template. Every body must
// still be the golden's.
func TestGoldenNotifyBodyRun(t *testing.T) { checkGoldenNotifyBodies(t, 3) }

// checkGoldenNotifyBodies publishes one notification to subs
// subscriptions on one consumer and checks each body it receives.
func checkGoldenNotifyBodies(t *testing.T, subs int) {
	ack := soap.New(xmlutil.New(NSNT, "NotifyResponse")).Marshal()
	bodies := make(chan []byte, subs)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		select {
		case bodies <- body:
		default:
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Write(ack)
	}))
	t.Cleanup(srv.Close)

	p, client, producerEPR := startProducer(t, nil)
	const topic = "jobs/7/done"
	for range subs {
		if _, err := Subscribe(client, producerEPR, wsa.NewEPR(srv.URL+"/consumer"),
			SubscribeOptions{Topic: Concrete(topic)}); err != nil {
			t.Fatal(err)
		}
	}
	// A payload whose text needs escaping.
	msg := xmlutil.New(nsJob, "JobDone").Add(xmlutil.NewText(nsJob, "Code", "1 < 2 & \"quoted\""))
	if n, err := p.Notify(topic, msg); n != subs || err != nil {
		t.Fatalf("notify = %d, %v", n, err)
	}
	want, err := os.ReadFile("testdata/notify-body.xml")
	if err != nil {
		t.Fatal(err)
	}
	for range subs {
		body := <-bodies
		body = bytes.ReplaceAll(body, []byte(srv.Listener.Addr().String()), []byte("127.0.0.1:PORT"))
		body = regexp.MustCompile(`<wsa:MessageID>[^<]*</wsa:MessageID>`).
			ReplaceAll(body, []byte("<wsa:MessageID>MASKED</wsa:MessageID>"))
		if !bytes.Equal(body, want) {
			t.Fatalf("notify-body.xml changed\n got: %q\nwant: %q", body, want)
		}
	}
}
