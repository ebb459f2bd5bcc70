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
// a consumer reference property) and the wire bytes. The addressing
// elements are one block, so the five allocations are the envelope,
// the MessageID string, the block, the header list and the cloned
// reference property.
func TestDeliveryRequestAllocs(t *testing.T) {
	limit := 5.0
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
