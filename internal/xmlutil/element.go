// Package xmlutil provides a small namespace-aware XML element tree.
//
// Every layer of both software stacks traffics in XML documents whose
// schemas are not known statically: WS-Transfer bodies are literally
// xsd:any (paper §2.3 — "only an <XSD:any> tag exists"), WSRF resource
// property documents are service-defined, and the XML database stores
// arbitrary documents. encoding/xml's struct mapping cannot represent
// that, so this package supplies the dynamic document model: parsing,
// deterministic namespace-aware serialization, canonicalization (needed
// by the WS-Security signature layer), and structural helpers.
package xmlutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Element is one XML element: a resolved name, namespace-resolved
// attributes, character data, and child elements. Mixed content is
// simplified: all character data of an element is concatenated into
// Text. This is sufficient for SOAP messaging, where elements carry
// either text or children, not interleaved prose.
type Element struct {
	Name     xml.Name // Space is the namespace URI ("" = no namespace)
	Attrs    []xml.Attr
	Text     string
	Children []*Element
}

// New returns an element with the given namespace URI and local name.
func New(space, local string) *Element {
	return &Element{Name: xml.Name{Space: space, Local: local}}
}

// NewText returns an element containing only character data.
func NewText(space, local, text string) *Element {
	e := New(space, local)
	e.Text = text
	return e
}

// Add appends children and returns the receiver for chaining.
func (e *Element) Add(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// SetText replaces the element's character data and returns the receiver.
func (e *Element) SetText(text string) *Element {
	e.Text = text
	return e
}

// SetAttr sets (or replaces) an attribute and returns the receiver.
func (e *Element) SetAttr(space, local, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name.Space == space && e.Attrs[i].Name.Local == local {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, xml.Attr{Name: xml.Name{Space: space, Local: local}, Value: value})
	return e
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(space, local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the attribute value or "" when absent.
func (e *Element) AttrValue(space, local string) string {
	v, _ := e.Attr(space, local)
	return v
}

// Child returns the first child with the given namespace URI and local
// name, or nil. An empty space matches children in no namespace; use
// ChildLocal to match any namespace.
func (e *Element) Child(space, local string) *Element {
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			return c
		}
	}
	return nil
}

// ChildLocal returns the first child with the given local name in any
// namespace, or nil.
func (e *Element) ChildLocal(local string) *Element {
	for _, c := range e.Children {
		if c.Name.Local == local {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children with the given name.
func (e *Element) ChildrenNamed(space, local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name.Space == space && c.Name.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// Path descends through a chain of (space, local) pairs expressed as
// xml.Names, returning the first matching element at each step, or nil
// if any step is missing.
func (e *Element) Path(names ...xml.Name) *Element {
	cur := e
	for _, n := range names {
		cur = cur.Child(n.Space, n.Local)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// TrimText returns the element's character data with surrounding
// whitespace removed.
func (e *Element) TrimText() string { return strings.TrimSpace(e.Text) }

// ChildText returns the trimmed text of the first matching child, or "".
func (e *Element) ChildText(space, local string) string {
	if c := e.Child(space, local); c != nil {
		return c.TrimText()
	}
	return ""
}

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	cp := &Element{Name: e.Name, Text: e.Text}
	if len(e.Attrs) > 0 {
		cp.Attrs = make([]xml.Attr, len(e.Attrs))
		copy(cp.Attrs, e.Attrs)
	}
	for _, c := range e.Children {
		cp.Children = append(cp.Children, c.Clone())
	}
	return cp
}

// Walk visits e and its descendants in document order. If fn returns
// false the walk does not descend into that element's children.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// Equal reports deep structural equality: names, trimmed text,
// attribute sets (order-insensitive), and child sequences must match.
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.TrimText() != b.TrimText() || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for _, attr := range a.Attrs {
		v, ok := b.Attr(attr.Name.Space, attr.Name.Local)
		if !ok || v != attr.Value {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the element as XML, for debugging and logging.
func (e *Element) String() string { return string(e.Marshal()) }

// wellKnownPrefixes gives stable, human-readable prefixes to the
// namespaces that appear constantly in message traces.
var wellKnownPrefixes = map[string]string{
	"http://schemas.xmlsoap.org/soap/envelope/":                                          "soap",
	"http://schemas.xmlsoap.org/ws/2004/08/addressing":                                   "wsa",
	"http://docs.oasis-open.org/wsrf/rp-2":                                               "wsrp",
	"http://docs.oasis-open.org/wsrf/rl-2":                                               "wsrl",
	"http://docs.oasis-open.org/wsrf/sg-2":                                               "wssg",
	"http://docs.oasis-open.org/wsrf/bf-2":                                               "wsbf",
	"http://docs.oasis-open.org/wsn/b-2":                                                 "wsnt",
	"http://docs.oasis-open.org/wsn/br-2":                                                "wsntbr",
	"http://docs.oasis-open.org/wsn/t-1":                                                 "wstop",
	"http://schemas.xmlsoap.org/ws/2004/09/transfer":                                     "wxf",
	"http://schemas.xmlsoap.org/ws/2004/08/eventing":                                     "wse",
	"http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd":  "wsse",
	"http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-utility-1.0.xsd": "wsu",
	"http://www.w3.org/2000/09/xmldsig#":                                                 "ds",
}

// encoder is the pooled state of one serialization: the namespace
// prefixes assigned so far and canonical mode's scratch. A document
// uses a handful of namespaces, so a prefix lookup is a short scan of
// two parallel slices, cheaper than hashing the URI into a map once per
// element and attribute.
type encoder struct {
	uris      []string // in declaration order
	prefixes  []string // prefixes[i] is bound to uris[i]
	next      int
	canonical bool
	sorted    []string   // canonical: the distinct URIs, sorted
	attrs     []xml.Attr // canonical: one element's attributes, sorted
	// MarshalTemplate's hole, hole's children from holeAt on: found holes
	// times, binding uris[bound[0]:bound[1]] and written at cut[0]:cut[1].
	hole       *Element
	holeAt     int
	holes      int
	bound, cut [2]int
}

// encPool recycles encoders between serializations: the signature path
// canonicalizes several message parts per request, and fresh state for
// each was a measurable share of the signed round trip's allocations.
var encPool = sync.Pool{New: func() any { return new(encoder) }}

// reset clears every string the encoder holds, so a pooled encoder
// cannot pin the last document's URIs (which may alias its parse
// input), and readies it for the next document.
func (enc *encoder) reset() {
	clear(enc.uris)
	clear(enc.prefixes)
	clear(enc.sorted)
	clear(enc.attrs[:cap(enc.attrs)])
	enc.uris, enc.prefixes, enc.sorted, enc.attrs = enc.uris[:0], enc.prefixes[:0], enc.sorted[:0], enc.attrs[:0]
	enc.next = 0
	enc.canonical = false
	enc.hole, enc.holes = nil, 0
}

// prefix returns the prefix bound to uri, or "" for no namespace.
func (enc *encoder) prefix(uri string) string {
	if uri == "" {
		return ""
	}
	for i, u := range enc.uris {
		if u == uri {
			return enc.prefixes[i]
		}
	}
	return ""
}

// bind assigns uri a prefix on first use: its well-known prefix when
// that is free, else the next generated one.
func (enc *encoder) bind(uri string) {
	if uri == "" || enc.prefix(uri) != "" {
		return
	}
	p, ok := wellKnownPrefixes[uri]
	if !ok || slices.Contains(enc.prefixes, p) {
		enc.next++
		p = genPrefix(enc.next)
		for slices.Contains(enc.prefixes, p) {
			enc.next++
			p = genPrefix(enc.next)
		}
	}
	enc.uris = append(enc.uris, uri)
	enc.prefixes = append(enc.prefixes, p)
}

// bindTree binds every namespace e's subtree uses, in preorder first-use
// order, so declarations are stable.
func (enc *encoder) bindTree(e *Element) {
	enc.bind(e.Name.Space)
	for _, a := range e.Attrs {
		enc.bind(a.Name.Space)
	}
	for i, c := range e.Children {
		if e == enc.hole && i == enc.holeAt {
			enc.bound[0] = len(enc.uris)
		}
		enc.bindTree(c)
	}
	if e == enc.hole {
		enc.bound[1] = len(enc.uris)
	}
}

// collect gathers the distinct namespace URIs of e's subtree.
func (enc *encoder) collect(e *Element) {
	add := func(uri string) {
		if uri != "" && !slices.Contains(enc.sorted, uri) {
			enc.sorted = append(enc.sorted, uri)
		}
	}
	add(e.Name.Space)
	for _, a := range e.Attrs {
		add(a.Name.Space)
	}
	for _, c := range e.Children {
		enc.collect(c)
	}
}

// genPrefixes interns the generated prefixes every document reuses, so
// prefix assignment allocates nothing in the common case.
var genPrefixes = [16]string{"ns0", "ns1", "ns2", "ns3", "ns4", "ns5", "ns6", "ns7",
	"ns8", "ns9", "ns10", "ns11", "ns12", "ns13", "ns14", "ns15"}

func genPrefix(n int) string {
	if n >= 0 && n < len(genPrefixes) {
		return genPrefixes[n]
	}
	return "ns" + strconv.Itoa(n)
}

// bufPool recycles serialization buffers. Marshal is the single
// hottest call in both stacks — every request, response, notification,
// database write, and signature digest funnels through it — so the
// working buffer must not be reallocated per message.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal serializes the element tree to XML. All namespaces used in
// the subtree are declared on the root element; prefixes are assigned
// deterministically in preorder first-use order, so output for a given
// tree is stable across runs.
func (e *Element) Marshal() []byte {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	e.MarshalTo(b)
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	bufPool.Put(b)
	return out
}

// MarshalTo appends the same serialization Marshal produces to b, with
// no intermediate []byte. The wire paths (HTTP request/response
// bodies, TCP event frames) marshal straight into their pooled
// transmit buffers through this. It is MarshalTemplate without a hole.
func (e *Element) MarshalTo(b *bytes.Buffer) { e.MarshalTemplate(b, nil, 0) }

// Canonical serializes the element tree in a normalized form suitable
// for digesting and signing: same prefix discipline as Marshal, but
// attributes sorted by (namespace, local name) and all text trimmed.
// This plays the role of XML canonicalization (C14N) in the WS-Security
// layer; as long as signer and verifier share the algorithm, signatures
// are stable, which is the property the paper's X.509 experiments need.
func (e *Element) Canonical() []byte {
	var out []byte
	e.withCanonicalBuffer(func(b *bytes.Buffer) {
		out = make([]byte, b.Len())
		copy(out, b.Bytes())
	})
	return out
}

// CanonicalSum256 returns the SHA-256 digest of the canonical form
// without materializing the serialized bytes outside the pooled
// buffer — the signature layer digests several message parts per
// request and never needs the bytes themselves.
func (e *Element) CanonicalSum256() [sha256.Size]byte {
	var sum [sha256.Size]byte
	e.withCanonicalBuffer(func(b *bytes.Buffer) {
		sum = sha256.Sum256(b.Bytes())
	})
	return sum
}

// withCanonicalBuffer renders the canonical form into pooled state and
// hands the buffer to fn. Both pooled values go back to their pools
// when fn returns — the Get/Put span begins and ends in this function,
// so fn must copy or digest the bytes, never retain them.
func (e *Element) withCanonicalBuffer(fn func(b *bytes.Buffer)) {
	enc := encPool.Get().(*encoder)
	enc.canonical = true
	// Prefixes are assigned in sorted-URI order so the canonical form is
	// invariant under attribute reordering (prefix assignment must not
	// depend on document order, which reordering perturbs).
	enc.collect(e)
	slices.Sort(enc.sorted)
	for _, u := range enc.sorted {
		enc.bind(u)
	}
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	enc.writeElement(b, e, true)
	fn(b)
	bufPool.Put(b)
	enc.reset()
	encPool.Put(enc)
}

// compareAttrs orders attributes by namespace URI, then local name.
func compareAttrs(a, b xml.Attr) int {
	if c := strings.Compare(a.Name.Space, b.Name.Space); c != 0 {
		return c
	}
	return strings.Compare(a.Name.Local, b.Name.Local)
}

// writeName writes prefix:local, or local alone for no prefix.
func writeName(b *bytes.Buffer, prefix, local string) {
	if prefix != "" {
		b.WriteString(prefix)
		b.WriteByte(':')
	}
	b.WriteString(local)
}

func (enc *encoder) writeElement(b *bytes.Buffer, e *Element, root bool) {
	prefix := enc.prefix(e.Name.Space)
	b.WriteByte('<')
	writeName(b, prefix, e.Name.Local)
	if root {
		for i, uri := range enc.uris {
			b.WriteString(` xmlns:`)
			b.WriteString(enc.prefixes[i])
			b.WriteString(`="`)
			escapeInto(b, uri)
			b.WriteByte('"')
		}
	}
	attrs := e.Attrs
	if enc.canonical && len(attrs) > 1 {
		// The scratch is free again before any child is written.
		enc.attrs = append(enc.attrs[:0], attrs...)
		slices.SortFunc(enc.attrs, compareAttrs)
		attrs = enc.attrs
	}
	for _, a := range attrs {
		b.WriteByte(' ')
		writeName(b, enc.prefix(a.Name.Space), a.Name.Local)
		b.WriteString(`="`)
		escapeInto(b, a.Value)
		b.WriteByte('"')
	}
	text := e.Text
	if enc.canonical {
		text = strings.TrimSpace(text)
	}
	if text == "" && len(e.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	escapeInto(b, text)
	for i, c := range e.Children {
		if e == enc.hole && i == enc.holeAt {
			enc.cut[0] = b.Len()
			enc.holes++
		}
		enc.writeElement(b, c, false)
	}
	if e == enc.hole {
		enc.cut[1] = b.Len()
	}
	b.WriteString("</")
	writeName(b, prefix, e.Name.Local)
	b.WriteByte('>')
}

// escapeNeeded lists every byte escapeInto rewrites; all are ASCII, so
// spans between occurrences can be copied wholesale without decoding
// runes. Typical SOAP content (URIs, ids, numbers) contains none, and
// then the whole string is a single WriteString.
const escapeNeeded = "&<>\"'"

func escapeInto(b *bytes.Buffer, s string) {
	for {
		i := strings.IndexAny(s, escapeNeeded)
		if i < 0 {
			b.WriteString(s)
			return
		}
		b.WriteString(s[:i])
		switch s[i] {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		case '\'':
			b.WriteString("&apos;")
		}
		s = s[i+1:]
	}
}
