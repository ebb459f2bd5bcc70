package container

import (
	"bytes"
	"context"
	"testing"

	"altstacks/internal/obs"
	"altstacks/internal/wsa"
	"altstacks/internal/xmlutil"
)

// TestSplicedRunMatchesFullRender drives one pipelined run whose
// requests the run's template takes and refuses by turns: reference
// headers in a new namespace (the template's own), none, in a
// well-known namespace, in the body's namespace and in other new ones,
// a namespaced attribute, text that needs escaping, and a raw body and
// other extra header blocks in the middle. Every request on the wire
// must be what Client.marshal renders for its message with its
// MessageID, and every deliver span must record that MessageID.
func TestSplicedRunMatchesFullRender(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	p := startSink(t)
	sub := func(space, text string) *xmlutil.Element { return xmlutil.NewText(space, "Sub", text) }
	to := func(props, params []*xmlutil.Element) wsa.EPR {
		epr := p.epr()
		epr.ReferenceProperties, epr.ReferenceParameters = props, params
		return epr
	}
	param := func(e *xmlutil.Element) wsa.EPR { return to(nil, []*xmlutil.Element{e}) }
	body, raw := notifyBody(), xmlutil.NewText("urn:e", "Ev", "raw")
	extra := []*xmlutil.Element{xmlutil.NewText("urn:extra", "Topic", "t<1>")}
	other := []*xmlutil.Element{xmlutil.NewText("urn:extra", "Topic", "t<2>")}
	msgs := []Message{
		{To: param(sub("urn:sub", "0"))},
		{To: param(sub("urn:sub", "1"))},
		{To: param(sub("urn:sub", `2 < 3 & "4"`))},
		{To: p.epr()},
		{To: to([]*xmlutil.Element{sub("urn:sub", "p")}, []*xmlutil.Element{sub("urn:sub", "4")})},
		{To: param(sub(wsa.NS, "5"))},
		{To: param(sub("urn:sub", "6")), Body: raw},
		{To: param(sub(nsNT, "7"))},
		{To: param(sub("urn:sub", "8").SetAttr("urn:sub", "kind", "a'b"))},
		{To: param(sub("urn:sub", "9").SetAttr("urn:attr", "kind", "x"))},
		{To: param(sub("urn:other", "10"))},
		{To: param(sub("urn:sub", "11")), Headers: other},
		{To: param(sub("http://docs.oasis-open.org/wsrf/rp-2", "12"))},
		{To: param(sub("urn:sub", "13"))},
	}
	ctx, root := obs.StartSpan(context.Background(), "publish")
	spans := make([]*obs.Span, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		m.Action = nsNT + "/Notify"
		if m.Body == nil {
			m.Body = body
		}
		if m.Headers == nil {
			m.Headers = extra
		}
		m.Ctx, spans[i] = obs.StartSpan(ctx, "deliver")
	}
	client := NewClient(ClientConfig{}).ForDelivery(DeliveryPooled)
	client.DeliverEach(context.Background(), len(msgs), func(i int) Message { return msgs[i] }, func(i int, err error) {
		if err != nil {
			t.Errorf("message %d: %v", i, err)
		}
		spans[i].End()
	})
	root.End()
	if a := p.accepts.Load(); a != 1 {
		t.Fatalf("one run dialed %d connections", a)
	}

	var recorded []string
	for _, tr := range obs.Traces() {
		if tr.ID == root.TraceID() {
			for _, s := range tr.Spans {
				if s.Name == "deliver" {
					recorded = append(recorded, s.MessageID)
				}
			}
		}
	}
	if len(recorded) != len(msgs) {
		t.Fatalf("%d deliver spans recorded, want %d", len(recorded), len(msgs))
	}
	var full wireBuf
	for i := range msgs {
		req := <-p.reqs
		got := req[bytes.Index(req, []byte("\r\n\r\n"))+4:]
		mid := messageIDPattern.FindSubmatch(got)[1]
		if string(mid) != recorded[i] {
			t.Errorf("message %d sent MessageID %s, its span recorded %s", i, mid, recorded[i])
		}
		if err := client.marshal(&msgs[i], nil, &full); err != nil {
			t.Fatal(err)
		}
		want := bytes.Replace(full.Bytes(), messageIDPattern.FindSubmatch(full.Bytes())[1], mid, 1)
		if !bytes.Equal(got, want) {
			t.Errorf("message %d differs from its full render\n got: %s\nwant: %s", i, got, want)
		}
	}
}
