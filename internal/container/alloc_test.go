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
// serializing one request, as callEnvelope does for every subscriber
// of a fan-out: the envelope, its addressing headers (a fresh
// MessageID and a consumer reference property) and the wire bytes.
func TestDeliveryRequestAllocs(t *testing.T) {
	body := notifyBody()
	consumer := wsa.NewEPR("http://127.0.0.1:8080/consumer").WithProperty("urn:svc", "SubID", "s-42")
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		env := soap.New(body)
		wsa.Stamp(env, consumer, nsNT+"/Notify")
		buf.Reset()
		env.MarshalTo(&buf)
	})
	if allocs > 16 {
		t.Fatalf("delivery request build+marshal = %.0f allocs, want <= 16", allocs)
	}
}

// TestReplyAllocs pins the same for the reply dispatch stamps onto a
// handler's response body.
func TestReplyAllocs(t *testing.T) {
	body := xmlutil.New(nsNT, "NotifyResponse")
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		env := soap.New(body)
		wsa.StampReply(env, "urn:uuid:00000000-0000-4000-8000-000000000001", nsNT+"/NotifyResponse")
		buf.Reset()
		env.MarshalTo(&buf)
	})
	if allocs > 13 {
		t.Fatalf("reply build+marshal = %.0f allocs, want <= 13", allocs)
	}
}
