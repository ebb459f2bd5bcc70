// Package wsa implements WS-Addressing (the August 2004 member
// submission both stacks rely on): endpoint references and message
// information headers.
//
// The EndpointReference is the load-bearing construct of the whole
// paper: WSRF addresses WS-Resources through EPR reference properties
// (the WS-Resource Access Pattern, paper §2.1), and WS-Transfer names
// its resources the same way (§3.2 — "this name … is embedded into a
// returning EPR as a reference property"). Both stacks "suffer from the
// need to add the correct WS-Addressing header content" (paper §5),
// which is exactly what this package automates.
package wsa

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"slices"

	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/xmlutil"
)

// NS is the WS-Addressing 2004/08 namespace.
const NS = "http://schemas.xmlsoap.org/ws/2004/08/addressing"

// Anonymous is the anonymous reply-to address: replies flow back on
// the transport's response channel.
const Anonymous = NS + "/role/anonymous"

// EPR is a WS-Addressing EndpointReference: a transport address plus
// opaque reference properties/parameters that the issuing service
// round-trips as SOAP headers to identify a specific resource.
type EPR struct {
	Address             string
	ReferenceProperties []*xmlutil.Element
	ReferenceParameters []*xmlutil.Element
}

// NewEPR returns an EPR for a bare service endpoint.
func NewEPR(address string) EPR { return EPR{Address: address} }

// WithProperty returns a copy of the EPR with an extra reference
// property (a simple text element in the given namespace).
func (e EPR) WithProperty(space, local, value string) EPR {
	cp := e.clone()
	cp.ReferenceProperties = append(cp.ReferenceProperties, xmlutil.NewText(space, local, value))
	return cp
}

// WithParameter returns a copy of the EPR with an extra reference parameter.
func (e EPR) WithParameter(space, local, value string) EPR {
	cp := e.clone()
	cp.ReferenceParameters = append(cp.ReferenceParameters, xmlutil.NewText(space, local, value))
	return cp
}

func (e EPR) clone() EPR {
	cp := EPR{Address: e.Address}
	for _, p := range e.ReferenceProperties {
		cp.ReferenceProperties = append(cp.ReferenceProperties, p.Clone())
	}
	for _, p := range e.ReferenceParameters {
		cp.ReferenceParameters = append(cp.ReferenceParameters, p.Clone())
	}
	return cp
}

// Property returns the trimmed text of the named reference property.
func (e EPR) Property(space, local string) (string, bool) {
	for _, p := range e.ReferenceProperties {
		if p.Name.Space == space && p.Name.Local == local {
			return p.TrimText(), true
		}
	}
	return "", false
}

// IsZero reports whether the EPR is unset.
func (e EPR) IsZero() bool {
	return e.Address == "" && len(e.ReferenceProperties) == 0 && len(e.ReferenceParameters) == 0
}

// Element renders the EPR under the given element name (for example
// wsa:EndpointReference, wsnt:ConsumerReference, or a job EPR in a
// notification payload).
func (e EPR) Element(space, local string) *xmlutil.Element {
	el := xmlutil.New(space, local)
	el.Add(xmlutil.NewText(NS, "Address", e.Address))
	if len(e.ReferenceProperties) > 0 {
		rp := xmlutil.New(NS, "ReferenceProperties")
		for _, p := range e.ReferenceProperties {
			rp.Add(p.Clone())
		}
		el.Add(rp)
	}
	if len(e.ReferenceParameters) > 0 {
		rp := xmlutil.New(NS, "ReferenceParameters")
		for _, p := range e.ReferenceParameters {
			rp.Add(p.Clone())
		}
		el.Add(rp)
	}
	return el
}

// ParseEPR interprets an element (of any name) as an EndpointReference.
func ParseEPR(el *xmlutil.Element) (EPR, error) {
	if el == nil {
		return EPR{}, fmt.Errorf("wsa: nil endpoint reference element")
	}
	addr := el.Child(NS, "Address")
	if addr == nil {
		return EPR{}, fmt.Errorf("wsa: %s has no wsa:Address", el.Name.Local)
	}
	e := EPR{Address: addr.TrimText()}
	if rp := el.Child(NS, "ReferenceProperties"); rp != nil {
		for _, c := range rp.Children {
			e.ReferenceProperties = append(e.ReferenceProperties, c.Clone())
		}
	}
	if rp := el.Child(NS, "ReferenceParameters"); rp != nil {
		for _, c := range rp.Children {
			e.ReferenceParameters = append(e.ReferenceParameters, c.Clone())
		}
	}
	return e, nil
}

// Info carries the WS-Addressing message information headers.
type Info struct {
	To        string
	Action    string
	MessageID string
	RelatesTo string
	ReplyTo   EPR
}

// Stamp adds the message information headers for a request addressed
// to epr with the given action, plus the EPR's reference properties
// and parameters as first-class SOAP headers (the SOAP binding of the
// WS-Resource Access Pattern). A fresh MessageID is minted. The
// generated MessageID is returned so callers can correlate replies.
//
// Every message is stamped, so the addressing elements are built in
// one block and env.Headers grows once. The reference headers are
// epr's own elements and the ReplyTo is one every request shares, as
// the envelope shares its body: the stamped headers are read-only.
func Stamp(env *soap.Envelope, epr EPR, action string) string {
	mid, _ := stamp(env, epr, action)
	return mid
}

// StampTemplate stamps env as Stamp does and appends its serialization
// to b, returned as a template whose hole is the header blocks that
// differ between requests with one action to one address: the
// MessageID, the ReplyTo, and the reference properties and parameters.
// Restamp fills it.
func StampTemplate(env *soap.Envelope, epr EPR, action string, b *bytes.Buffer) (string, *xmlutil.Template) {
	mid, hole := stamp(env, epr, action)
	return mid, env.MarshalTemplate(b, hole)
}

// Restamp appends the request t was rendered from (StampTemplate)
// stamped for epr instead, with a fresh MessageID, which it returns. It
// writes nothing and returns "" when t refuses epr's reference headers
// (xmlutil.Template.Fill).
func Restamp(t *xmlutil.Template, b *bytes.Buffer, epr EPR) string {
	mid := uuid.New().URN()
	id := [1]*xmlutil.Element{{Name: xml.Name{Space: NS, Local: "MessageID"}, Text: mid}}
	if g := perRequest(&id, epr); !t.Fill(b, g[:]...) {
		return ""
	}
	return mid
}

// stamp is Stamp; it also returns the index in env.Headers of the first
// of perRequest's blocks.
func stamp(env *soap.Envelope, epr EPR, action string) (string, int) {
	mid := uuid.New().URN()
	h := &requestHeaders{to: header("To", epr.Address), action: header("Action", action), messageID: header("MessageID", mid)}
	h.id[0] = &h.messageID
	g := perRequest(&h.id, epr)
	env.Headers = slices.Grow(env.Headers, 2+len(g[0])+len(g[1])+len(g[2])+len(g[3]))
	env.Headers = append(env.Headers, &h.to, &h.action)
	hole := len(env.Headers)
	for _, blocks := range g {
		env.Headers = append(env.Headers, blocks...)
	}
	return mid, hole
}

// requestHeaders is the block Stamp builds in: To, Action and
// MessageID.
type requestHeaders struct {
	to, action, messageID xmlutil.Element
	id                    [1]*xmlutil.Element // &messageID
}

// perRequest returns, in order, the header blocks that differ between
// requests with one action to one address: the MessageID id holds, the
// ReplyTo, and epr's reference properties and parameters.
func perRequest(id *[1]*xmlutil.Element, epr EPR) [4][]*xmlutil.Element {
	return [4][]*xmlutil.Element{id[:], anonymousReplyTo[:], epr.ReferenceProperties, epr.ReferenceParameters}
}

// anonymousReplyTo is every request's ReplyTo: replies flow back on the
// transport's response channel.
var anonymousReplyTo = [1]*xmlutil.Element{{Name: xml.Name{Space: NS, Local: "ReplyTo"},
	Children: []*xmlutil.Element{{Name: xml.Name{Space: NS, Local: "Address"}, Text: Anonymous}}}}

// StampReply adds response message information headers relating the
// reply to the request's MessageID, built in one block like Stamp's.
func StampReply(env *soap.Envelope, requestID, action string) {
	h := &replyHeaders{
		action:    header("Action", action),
		messageID: header("MessageID", uuid.New().URN()),
		relatesTo: header("RelatesTo", requestID),
	}
	env.Headers = append(slices.Grow(env.Headers, 3), &h.action, &h.messageID)
	if requestID != "" {
		env.Headers = append(env.Headers, &h.relatesTo)
	}
}

// replyHeaders is the block StampReply builds in.
type replyHeaders struct {
	action, messageID, relatesTo xmlutil.Element
}

// header returns a WS-Addressing element carrying text.
func header(local, text string) xmlutil.Element {
	return xmlutil.Element{Name: xml.Name{Space: NS, Local: local}, Text: text}
}

// Extract reads the message information headers from an envelope: the
// first of each, as Envelope.Header finds them. A repeated To, Action,
// MessageID or ReplyTo is refused with a Client fault that names it, as
// readers of different copies would disagree on the message; RelatesTo
// may repeat, once per relationship type.
func Extract(env *soap.Envelope) (info Info, err error) {
	var read uint8 // a bit per infoHeaders entry read
	for _, h := range env.Headers {
		if h.Name.Space != NS {
			continue
		}
		i := slices.Index(infoHeaders[:], h.Name.Local)
		if i < 0 {
			continue
		}
		if read&(1<<i) != 0 {
			if h.Name.Local != "RelatesTo" && err == nil {
				err = soap.Faultf(soap.FaultClient, "repeated wsa:%s header", h.Name.Local)
			}
			continue
		}
		read |= 1 << i
		switch h.Name.Local {
		case "To":
			info.To = h.TrimText()
		case "Action":
			info.Action = h.TrimText()
		case "MessageID":
			info.MessageID = h.TrimText()
		case "RelatesTo":
			info.RelatesTo = h.TrimText()
		case "ReplyTo":
			info.ReplyTo, _ = ParseEPR(h)
		}
	}
	return info, err
}

// infoHeaders names the message information headers.
var infoHeaders = [...]string{"To", "Action", "MessageID", "RelatesTo", "ReplyTo"}

// ResourceID returns the trimmed text of the reference-property header
// with the given name — how a service recovers the resource identity
// the client was handed inside an EPR.
func ResourceID(env *soap.Envelope, space, local string) (string, bool) {
	h := env.Header(space, local)
	if h == nil {
		return "", false
	}
	return h.TrimText(), true
}
