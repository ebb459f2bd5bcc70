// Package soap implements the SOAP 1.1 message model both stacks ride
// on: envelopes with header blocks and a body, faults, and
// mustUnderstand processing.
//
// Header blocks and body contents are xmlutil element trees rather
// than typed structs because the two stacks differ exactly here: WSRF
// operations have WSDL-defined schemas while WS-Transfer bodies are
// xsd:any (paper §2.3). A dynamic body model serves both.
package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"slices"
	"strings"
	"sync"

	"altstacks/internal/xmlutil"
)

// NS is the SOAP 1.1 envelope namespace.
const NS = "http://schemas.xmlsoap.org/soap/envelope/"

// Standard fault codes (SOAP 1.1 §4.4.1).
const (
	FaultClient          = "Client"
	FaultServer          = "Server"
	FaultMustUnderstand  = "MustUnderstand"
	FaultVersionMismatch = "VersionMismatch"
)

// Envelope is a SOAP message: zero or more header blocks and exactly
// one body child element (the operation request/response), or a fault.
type Envelope struct {
	Headers []*xmlutil.Element
	Body    *xmlutil.Element
	Fault   *Fault
}

// Fault is a SOAP 1.1 fault.
type Fault struct {
	Code   string // local part; marshaled as soap:Code
	Reason string
	Actor  string
	Detail *xmlutil.Element
}

// Error implements the error interface so handlers can return faults
// directly up the call stack.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.Reason)
}

// Faultf builds a fault with a formatted reason.
func Faultf(code, format string, args ...interface{}) *Fault {
	return &Fault{Code: code, Reason: fmt.Sprintf(format, args...)}
}

// New returns an envelope wrapping the given body element.
func New(body *xmlutil.Element) *Envelope {
	return &Envelope{Body: body}
}

// AddHeader appends header blocks and returns the envelope.
func (e *Envelope) AddHeader(h ...*xmlutil.Element) *Envelope {
	e.Headers = append(e.Headers, h...)
	return e
}

// Header returns the first header block with the given name, or nil.
func (e *Envelope) Header(space, local string) *xmlutil.Element {
	for _, h := range e.Headers {
		if h.Name.Space == space && h.Name.Local == local {
			return h
		}
	}
	return nil
}

// IsFault reports whether the envelope carries a fault body.
func (e *Envelope) IsFault() bool { return e.Fault != nil }

// Element renders the envelope as an element tree. The returned tree
// is fully independent of the envelope.
func (e *Envelope) Element() *xmlutil.Element {
	env := xmlutil.New(NS, "Envelope")
	if len(e.Headers) > 0 {
		hdr := xmlutil.New(NS, "Header")
		for _, h := range e.Headers {
			hdr.Add(h.Clone())
		}
		env.Add(hdr)
	}
	body := xmlutil.New(NS, "Body")
	if c := e.bodyChild(); c != nil {
		body.Add(c.Clone())
	}
	return env.Add(body)
}

// bodyChild returns the one element the Body carries: the fault
// rendered as an element, the payload, or nil for an empty body.
func (e *Envelope) bodyChild() *xmlutil.Element {
	if e.Fault == nil {
		return e.Body
	}
	f := xmlutil.New(NS, "Fault")
	// faultcode/faultstring are unqualified per SOAP 1.1.
	f.Add(xmlutil.NewText("", "faultcode", "soap:"+e.Fault.Code))
	f.Add(xmlutil.NewText("", "faultstring", e.Fault.Reason))
	if e.Fault.Actor != "" {
		f.Add(xmlutil.NewText("", "faultactor", e.Fault.Actor))
	}
	if e.Fault.Detail != nil {
		f.Add(xmlutil.New("", "detail").Add(e.Fault.Detail))
	}
	return f
}

// frame is the Envelope/Header/Body scaffolding MarshalTo wraps around
// an envelope's own header and body elements. Frames are pooled and
// wired once, so framing a message allocates nothing; the header and
// body trees are borrowed for one serialization and dropped before the
// frame goes back.
type frame struct {
	env, header, body xmlutil.Element
	parts             [2]*xmlutil.Element // &header, &body
	payload           [1]*xmlutil.Element
}

var framePool = sync.Pool{New: func() any {
	f := &frame{}
	f.env.Name = xml.Name{Space: NS, Local: "Envelope"}
	f.header.Name = xml.Name{Space: NS, Local: "Header"}
	f.body.Name = xml.Name{Space: NS, Local: "Body"}
	f.parts = [2]*xmlutil.Element{&f.header, &f.body}
	return f
}}

// Marshal serializes the envelope to bytes.
func (e *Envelope) Marshal() []byte {
	var b bytes.Buffer
	e.MarshalTo(&b)
	return b.Bytes()
}

// MarshalTo appends the envelope's serialization to b — same bytes as
// Marshal, no intermediate copy. The delivery paths use this to render
// straight into pooled wire buffers. It is MarshalTemplate without a
// hole.
func (e *Envelope) MarshalTo(b *bytes.Buffer) { e.MarshalTemplate(b, -1) }

// MarshalTemplate appends the envelope's serialization to b, as
// MarshalTo does, and returns it as a template whose hole is the header
// blocks from the nth on (xmlutil.Element.MarshalTemplate): nil unless
// there is an nth.
func (e *Envelope) MarshalTemplate(b *bytes.Buffer, n int) *xmlutil.Template {
	f := framePool.Get().(*frame)
	f.env.Children = f.parts[:]
	if len(e.Headers) == 0 {
		f.env.Children = f.parts[1:]
	}
	f.header.Children = e.Headers
	f.body.Children = nil
	if c := e.bodyChild(); c != nil {
		f.payload[0] = c
		f.body.Children = f.payload[:]
	}
	t := f.env.MarshalTemplate(b, &f.header, n)
	f.header.Children, f.payload[0] = nil, nil
	framePool.Put(f)
	return t
}

// Parse decodes a SOAP envelope from bytes.
func Parse(data []byte) (*Envelope, error) {
	root, err := xmlutil.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return FromElement(root)
}

// FromElement interprets an already-parsed element tree as an envelope.
// It inlines, so a caller that only reads the envelope keeps it on its
// stack.
func FromElement(root *xmlutil.Element) (*Envelope, error) {
	env := new(Envelope)
	if err := env.decode(root); err != nil {
		return nil, err
	}
	return env, nil
}

func (env *Envelope) decode(root *xmlutil.Element) error {
	if root.Name.Local != "Envelope" {
		return fmt.Errorf("soap: root element is %s, not Envelope", root.Name.Local)
	}
	if root.Name.Space != NS {
		return &Fault{Code: FaultVersionMismatch,
			Reason: fmt.Sprintf("unsupported envelope namespace %q", root.Name.Space)}
	}
	if hdr := root.Child(NS, "Header"); hdr != nil {
		env.Headers = hdr.Children
	}
	body := root.Child(NS, "Body")
	if body == nil {
		return fmt.Errorf("soap: envelope has no Body")
	}
	if f := body.Child(NS, "Fault"); f != nil {
		fault := &Fault{
			Code:   strings.TrimPrefix(f.ChildText("", "faultcode"), "soap:"),
			Reason: f.ChildText("", "faultstring"),
			Actor:  f.ChildText("", "faultactor"),
		}
		if d := f.Child("", "detail"); d != nil && len(d.Children) > 0 {
			fault.Detail = d.Children[0]
		}
		env.Fault = fault
		return nil
	}
	if len(body.Children) > 0 {
		env.Body = body.Children[0]
	}
	return nil
}

// MustUnderstandNames returns the names of header blocks flagged
// soap:mustUnderstand="1". The processing node must fault with
// FaultMustUnderstand for any it does not recognize.
func (e *Envelope) MustUnderstandNames() []string {
	var out []string
	for _, h := range e.Headers {
		if mustUnderstand(h) {
			out = append(out, h.Name.Space+" "+h.Name.Local)
		}
	}
	return out
}

// CheckMustUnderstand faults unless every mustUnderstand header's name
// (formatted "namespace local") appears in one of the understood sets.
func (e *Envelope) CheckMustUnderstand(understood ...map[string]bool) error {
	for _, h := range e.Headers {
		if !mustUnderstand(h) {
			continue
		}
		name := h.Name.Space + " " + h.Name.Local
		if !slices.ContainsFunc(understood, func(set map[string]bool) bool { return set[name] }) {
			return &Fault{Code: FaultMustUnderstand,
				Reason: fmt.Sprintf("header %s not understood", name)}
		}
	}
	return nil
}

func mustUnderstand(h *xmlutil.Element) bool {
	v, ok := h.Attr(NS, "mustUnderstand")
	return ok && (v == "1" || v == "true")
}
