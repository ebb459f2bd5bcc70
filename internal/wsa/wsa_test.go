package wsa

import (
	"strings"
	"testing"
	"testing/quick"

	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

func TestEPRRoundTrip(t *testing.T) {
	epr := NewEPR("http://host/svc").
		WithProperty("urn:svc", "ResourceID", "r-42").
		WithParameter("urn:svc", "Hint", "cold")
	el := epr.Element(NS, "EndpointReference")
	got, err := ParseEPR(el)
	if err != nil {
		t.Fatal(err)
	}
	if got.Address != epr.Address {
		t.Fatalf("address = %q", got.Address)
	}
	if v, ok := got.Property("urn:svc", "ResourceID"); !ok || v != "r-42" {
		t.Fatalf("property = %q,%v", v, ok)
	}
	if len(got.ReferenceParameters) != 1 || got.ReferenceParameters[0].TrimText() != "cold" {
		t.Fatalf("params = %v", got.ReferenceParameters)
	}
}

func TestEPRRoundTripThroughXML(t *testing.T) {
	epr := NewEPR("https://a:9/x").WithProperty("urn:d", "Dir", "users/alice/")
	el := epr.Element(NS, "EndpointReference")
	reparsed, err := xmlutil.Parse(el.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseEPR(reparsed)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Property("urn:d", "Dir"); v != "users/alice/" {
		t.Fatalf("property after XML transit = %q", v)
	}
}

func TestParseEPRErrors(t *testing.T) {
	if _, err := ParseEPR(nil); err == nil {
		t.Fatal("nil element accepted")
	}
	if _, err := ParseEPR(xmlutil.New("x", "EPR")); err == nil {
		t.Fatal("EPR without Address accepted")
	}
}

func TestWithPropertyDoesNotMutate(t *testing.T) {
	base := NewEPR("http://h/s")
	derived := base.WithProperty("u", "ID", "1")
	if len(base.ReferenceProperties) != 0 {
		t.Fatal("WithProperty mutated the receiver")
	}
	if v, ok := derived.Property("u", "ID"); !ok || v != "1" {
		t.Fatalf("derived property = %q,%v", v, ok)
	}
}

func TestStampAndExtract(t *testing.T) {
	epr := NewEPR("http://host/counter").WithProperty("urn:c", "CounterID", "c-1")
	env := soap.New(xmlutil.New("urn:c", "Get"))
	mid := Stamp(env, epr, "urn:c/Get")
	if !strings.HasPrefix(mid, "urn:uuid:") {
		t.Fatalf("message id = %q", mid)
	}
	// Simulate transit.
	parsed, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	info, err := Extract(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if info.To != "http://host/counter" || info.Action != "urn:c/Get" || info.MessageID != mid {
		t.Fatalf("info = %+v", info)
	}
	if info.ReplyTo.Address != Anonymous {
		t.Fatalf("ReplyTo = %q", info.ReplyTo.Address)
	}
	id, ok := ResourceID(parsed, "urn:c", "CounterID")
	if !ok || id != "c-1" {
		t.Fatalf("resource id = %q,%v", id, ok)
	}
}

func TestStampReplyRelatesTo(t *testing.T) {
	env := &soap.Envelope{Body: xmlutil.New("urn:c", "GetResponse")}
	StampReply(env, "urn:uuid:req-1", "urn:c/GetResponse")
	parsed, err := soap.Parse(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	info, err := Extract(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if info.RelatesTo != "urn:uuid:req-1" {
		t.Fatalf("RelatesTo = %q", info.RelatesTo)
	}
	if info.Action != "urn:c/GetResponse" || info.MessageID == "" {
		t.Fatalf("info = %+v", info)
	}
}

func TestResourceIDMissing(t *testing.T) {
	env := soap.New(xmlutil.New("urn:c", "Get"))
	if _, ok := ResourceID(env, "urn:c", "CounterID"); ok {
		t.Fatal("found resource id in header-less message")
	}
}

func TestPropertyEPRElementRoundTripQuick(t *testing.T) {
	isAlpha := func(s string) bool {
		if s == "" {
			return false
		}
		for _, r := range s {
			if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') {
				return false
			}
		}
		return true
	}
	f := func(addr, space, local, val string) bool {
		if !isAlpha(local) || !isAlpha(space) {
			return true // restrict to well-formed names; values stay arbitrary
		}
		epr := NewEPR(addr).WithProperty(space, local, val)
		el, err := xmlutil.Parse(epr.Element(NS, "EndpointReference").Marshal())
		if err != nil {
			return true // value contained XML-unrepresentable runes
		}
		got, err := ParseEPR(el)
		if err != nil {
			return false
		}
		v, ok := got.Property(space, local)
		return ok && v == strings.TrimSpace(val) && got.Address == strings.TrimSpace(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
