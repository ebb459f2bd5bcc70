package wsa

import (
	"bytes"
	"testing"

	"altstacks/internal/soap"
	"altstacks/internal/xmlutil"
)

// repeated names the first header of env, in order, that repeats a
// message information header that may appear once, or "".
func repeated(env *soap.Envelope) string {
	seen := map[string]bool{}
	for _, h := range env.Headers {
		switch name := h.Name.Local; {
		case h.Name.Space != NS || name != "To" && name != "Action" && name != "MessageID" && name != "ReplyTo":
		case seen[name]:
			return name
		default:
			seen[name] = true
		}
	}
	return ""
}

// FuzzExtract decodes fuzzed bytes as an inbound request is decoded:
// soap.Parse, then Extract, CheckMustUnderstand, and ParseEPR on every
// header block. None may panic. Extract must refuse exactly the
// envelopes that repeat To, Action, MessageID or ReplyTo, with a Client
// fault that names the first repeat, and read the first of each header
// as Envelope.Header finds it. An envelope it accepts must marshal to
// bytes that parse back, marshal to the same bytes, and carry the same
// message information.
func FuzzExtract(f *testing.F) {
	epr := NewEPR("http://host/counter").WithProperty("urn:c", "CounterID", "c-1").WithParameter("urn:c", "Sub", "s-1")
	request := soap.New(xmlutil.NewText("urn:c", "Get", "x"))
	Stamp(request, epr, "urn:c/Get")
	reply := soap.New(xmlutil.New("urn:c", "GetResponse"))
	StampReply(reply, "urn:uuid:req-1", "urn:c/GetResponse")
	fault := &soap.Envelope{Fault: soap.Faultf(soap.FaultClient, "no")}
	StampReply(fault, "urn:uuid:req-2", NS+"/fault")
	const (
		head = `<s:Envelope xmlns:s="` + soap.NS + `" xmlns:a="` + NS + `"><s:Header>`
		body = `</s:Header><s:Body><e xmlns="urn:e"/></s:Body></s:Envelope>`
	)
	for _, seed := range []string{
		string(request.Marshal()),
		string(reply.Marshal()),
		string(fault.Marshal()),
		head + `<a:Action>urn:echo/Echo</a:Action><a:Action>urn:echo/Fail</a:Action>` + body,
		head + `<a:RelatesTo>urn:uuid:a</a:RelatesTo><a:RelatesTo RelationshipType="x">urn:uuid:b</a:RelatesTo>` + body,
		head + `<a:ReplyTo><a:Address>http://r</a:Address><a:ReferenceProperties><p xmlns="urn:p">1</p></a:ReferenceProperties></a:ReplyTo><a:ReplyTo/>` + body,
		head + `<a:To> http://t </a:To><x xmlns="urn:x" s:mustUnderstand="1"/><a:MessageID/><a:MessageID/>` + body,
		head + `<a:ReplyTo/>` + body,
		`<s:Envelope xmlns:s="` + soap.NS + `"><s:Body/></s:Envelope>`,
		`<Envelope/>`,
		`<s:Envelope xmlns:s="` + soap.NS + `"><s:Header>`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		env, err := soap.Parse(in)
		if err != nil {
			return
		}
		info, err := Extract(env)
		env.CheckMustUnderstand(map[string]bool{NS + " Action": true})
		for _, h := range env.Headers {
			ParseEPR(h)
		}
		switch name := repeated(env); {
		case name == "" && err != nil:
			t.Fatalf("refused an envelope with no repeated header: %v\ninput: %q", err, in)
		case name != "":
			sf, ok := err.(*soap.Fault)
			if !ok || sf.Code != soap.FaultClient || sf.Reason != "repeated wsa:"+name+" header" {
				t.Fatalf("repeated wsa:%s: got %v, want a Client fault that names it\ninput: %q", name, err, in)
			}
			return
		}
		for _, h := range []struct{ local, got string }{
			{"To", info.To}, {"Action", info.Action}, {"MessageID", info.MessageID}, {"RelatesTo", info.RelatesTo},
		} {
			want := ""
			if el := env.Header(NS, h.local); el != nil {
				want = el.TrimText()
			}
			if h.got != want {
				t.Fatalf("wsa:%s read as %q, the first is %q\ninput: %q", h.local, h.got, want, in)
			}
		}
		out := env.Marshal()
		again, err := soap.Parse(out)
		if err != nil {
			t.Fatalf("reparse of a marshaled accepted envelope failed: %v\ninput: %q\nmarshaled: %q", err, in, out)
		}
		if re := again.Marshal(); !bytes.Equal(re, out) {
			t.Fatalf("marshal/parse round trip changed the bytes\ninput: %q\nfirst:  %q\nsecond: %q", in, out, re)
		}
		reInfo, err := Extract(again)
		if err != nil || !sameInfo(info, reInfo) {
			t.Fatalf("round trip changed the message information: %+v, %v; was %+v\ninput: %q", reInfo, err, info, in)
		}
	})
}

// sameInfo reports whether a and b carry the same message information,
// the ReplyTo compared as it marshals.
func sameInfo(a, b Info) bool {
	eprBytes := func(e EPR) string { return string(e.Element(NS, "ReplyTo").Marshal()) }
	return a.To == b.To && a.Action == b.Action && a.MessageID == b.MessageID && a.RelatesTo == b.RelatesTo &&
		eprBytes(a.ReplyTo) == eprBytes(b.ReplyTo)
}
