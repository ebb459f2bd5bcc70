package container

import (
	"bytes"
	"testing"

	"altstacks/internal/soap"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

const nsNT = "http://docs.oasis-open.org/wsn/b-2"

// notifyBody is a one-message wsnt:Notify, the body every WSN delivery
// carries.
func notifyBody() *xmlutil.Element {
	return xmlutil.New(nsNT, "Notify").Add(
		xmlutil.New(nsNT, "NotificationMessage").Add(
			xmlutil.NewText(nsNT, "Topic", "bench/tick").
				SetAttr("", "Dialect", "http://docs.oasis-open.org/wsn/t-1/TopicExpression/Concrete"),
			xmlutil.New(nsNT, "Message").Add(
				xmlutil.New("urn:e", "Ev").Add(xmlutil.NewText("urn:e", "V", "1"))),
		),
	)
}

// TestDeliveryRequestAllocs pins the per-delivery cost of building and
// serializing one request, as exchange does for every subscriber of a
// fan-out: the envelope, its addressing headers (a fresh MessageID and
// a consumer reference property) and the wire bytes. The envelope and
// the UUID stay on the stack, the addressing elements are one block,
// and the reference property is shared, not cloned, so the three
// allocations are the MessageID string, the block and the header list.
func TestDeliveryRequestAllocs(t *testing.T) {
	limit := 3.0
	if raceEnabled {
		limit = 16 // sync.Pool drops pooled frames at random under -race
	}
	body := notifyBody()
	consumer := wsa.NewEPR("http://127.0.0.1:8080/consumer").WithProperty("urn:svc", "SubID", "s-42")
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		env := soap.New(body)
		wsa.Stamp(env, consumer, nsNT+"/Notify")
		buf.Reset()
		env.MarshalTo(&buf)
	})
	if allocs > limit {
		t.Fatalf("delivery request build+marshal = %.0f allocs, want <= %.0f", allocs, limit)
	}
}

// TestSplicedRequestAllocs pins the cost of a request spliced into its
// run's template (splice.marshal), as a pipelined run writes all but
// its first two requests: the MessageID string alone. It builds no
// envelope, header block, header list or clone, and writes the
// reference headers straight from the consumer's EPR.
func TestSplicedRequestAllocs(t *testing.T) {
	limit := 1.0
	if raceEnabled {
		limit = 8
	}
	c := &Client{}
	m := Message{To: wsa.NewEPR("http://127.0.0.1:8080/consumer").WithParameter("urn:svc", "Sub", "42"),
		Action: nsNT + "/Notify", Body: notifyBody()}
	var s splice
	var buf wireBuf
	for range 2 {
		if err := s.marshal(c, &m, nil, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if s.t == nil {
		t.Fatal("a run's second request built no template")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.marshal(c, &m, nil, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Fatalf("spliced request = %.0f allocs, want <= %.0f", allocs, limit)
	}
}

// TestReplyAllocs pins the same for the reply dispatch stamps onto a
// handler's response body: the envelope, the MessageID string, the
// block of addressing elements and the header list.
func TestReplyAllocs(t *testing.T) {
	limit := 4.0
	if raceEnabled {
		limit = 13
	}
	body := xmlutil.New(nsNT, "NotifyResponse")
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		env := soap.New(body)
		wsa.StampReply(env, "urn:uuid:00000000-0000-4000-8000-000000000001", nsNT+"/NotifyResponse")
		buf.Reset()
		env.MarshalTo(&buf)
	})
	if allocs > limit {
		t.Fatalf("reply build+marshal = %.0f allocs, want <= %.0f", allocs, limit)
	}
}
