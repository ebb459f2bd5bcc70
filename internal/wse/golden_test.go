package wse

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// The bytes one published event puts on each delivery channel, stored
// under testdata/: the length-prefixed frame a TCP-mode subscriber
// reads, and the SOAP body of the HTTP POST a push-mode sink receives,
// with the sink's port and the fresh MessageID masked.
var messageIDPattern = regexp.MustCompile(`<wsa:MessageID>[^<]*</wsa:MessageID>`)

// goldenEvent is the event both captures publish: a payload whose text
// needs escaping, on a multi-segment topic.
func goldenEvent() (string, *xmlutil.Element) {
	return "jobs/7/done", xmlutil.New(nsE, "JobDone").Add(
		xmlutil.NewText(nsE, "Code", "1 < 2 & \"quoted\""))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed\n got: %q\nwant: %q", name, got, want)
	}
}

// TestGoldenTCPEventFrame reads, off a raw listener, the frame a
// TCP-mode publish writes.
func TestGoldenTCPEventFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type read struct {
		frame []byte
		err   error
	}
	frames := make(chan read, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			frames <- read{err: err}
			return
		}
		defer conn.Close()
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			frames <- read{err: err}
			return
		}
		frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		_, err = io.ReadFull(conn, frame[4:])
		frames <- read{frame, err}
	}()

	src, client, source := startSource(t, "")
	if _, err := Subscribe(client, source, SubscribeOptions{
		NotifyTo: wsa.NewEPR("tcp://" + ln.Addr().String()),
		Mode:     DeliveryModeTCP,
	}); err != nil {
		t.Fatal(err)
	}
	topic, msg := goldenEvent()
	if n, err := src.Publish(topic, msg); n != 1 || err != nil {
		t.Fatalf("publish = %d, %v", n, err)
	}
	select {
	case got := <-frames:
		if got.err != nil {
			t.Fatal(got.err)
		}
		checkGolden(t, "tcp-event-frame.bin", got.frame)
	case <-time.After(2 * time.Second):
		t.Fatal("no frame arrived")
	}
}

// TestGoldenPushEventBody captures the request body a push-mode sink
// receives for one event.
func TestGoldenPushEventBody(t *testing.T) { checkGoldenPushEventBodies(t, 1) }

// TestGoldenPushEventBodyRun is TestGoldenPushEventBody with three
// subscriptions on the sink: one pipelined run, whose later requests
// are spliced into the second's template. Every body must still be the
// golden's.
func TestGoldenPushEventBodyRun(t *testing.T) { checkGoldenPushEventBodies(t, 3) }

// checkGoldenPushEventBodies publishes one event to subs push-mode
// subscriptions on one sink and checks each body it receives.
func checkGoldenPushEventBodies(t *testing.T, subs int) {
	ack := soap.New(xmlutil.New(NS, "EventAck")).Marshal()
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

	src, client, source := startSource(t, "")
	for range subs {
		if _, err := Subscribe(client, source, SubscribeOptions{
			NotifyTo: wsa.NewEPR(srv.URL + "/sink"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	topic, msg := goldenEvent()
	if n, err := src.Publish(topic, msg); n != subs || err != nil {
		t.Fatalf("publish = %d, %v", n, err)
	}
	for range subs {
		body := <-bodies
		body = bytes.ReplaceAll(body, []byte(srv.Listener.Addr().String()), []byte("127.0.0.1:PORT"))
		body = messageIDPattern.ReplaceAll(body, []byte("<wsa:MessageID>MASKED</wsa:MessageID>"))
		checkGolden(t, "push-event-body.xml", body)
	}
}
