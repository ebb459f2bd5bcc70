package xmlutil

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"altstacks/internal/obs"
)

// Parse volume counters (self-gated; one atomic bool load per parse
// when observability is off).
var (
	parseTotal = obs.NewCounter("ogsa_xml_parse_total", "",
		"XML documents parsed")
	parseBytesTotal = obs.NewCounter("ogsa_xml_parse_bytes_total", "",
		"input bytes consumed by the XML parser")
)

// Parse decodes one XML document into an element tree. Namespace
// prefixes are resolved (Element names and attribute names carry
// namespace URIs); xmlns declaration attributes are dropped since they
// are reconstructed on serialization. Whitespace-only character data in
// elements that have child elements is discarded.
//
// Parse is a hand-rolled single-pass parser over the input bytes — the
// inbound counterpart of the pooled serializer. Every request,
// notification delivery, and database read funnels through it, so it
// avoids the per-token allocation of encoding/xml: parser state is
// pooled, each document's elements, attributes and child lists come
// from that document's own arena (one block each), and text spans
// without entity references alias a single upfront copy of the input
// (the one copy that makes the result independent of the caller's
// buffer, which the container recycles). The tests pin it to an
// encoding/xml-based reference implementation on a differential corpus.
func Parse(data []byte) (*Element, error) {
	parseTotal.Inc()
	parseBytesTotal.Add(int64(len(data)))
	p := parserPool.Get().(*parser)
	p.begin(string(data))
	root, err := p.parse()
	p.release()
	parserPool.Put(p)
	if err != nil {
		return nil, err
	}
	return root, nil
}

// ParseInPlace parses data as Parse does and hands the tree to fn,
// which must keep no part of it: the tree's strings alias data (there
// is no input copy) and its elements, attributes and child lists live
// in an arena the parser reuses once fn returns. It is for a caller
// that reads a document and drops it, such as a one-way delivery
// checking the consumer's acknowledgement; a small document then parses
// without allocating. fn runs only if data parses.
func ParseInPlace(data []byte, fn func(root *Element)) error {
	parseTotal.Inc()
	parseBytesTotal.Add(int64(len(data)))
	p := parserPool.Get().(*parser)
	p.begin(unsafe.String(unsafe.SliceData(data), len(data)))
	held := p.reuseArena()
	root, err := p.parse()
	if err == nil {
		fn(root)
	}
	if held {
		p.clearArena()
	}
	p.release()
	parserPool.Put(p)
	return err
}

// MustParse is Parse for static document literals in tests and
// examples; it panics on malformed input.
func MustParse(data string) *Element {
	e, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return e
}

// xmlNamespaceURI is the namespace the reserved "xml" prefix is bound
// to without declaration (Namespaces in XML 1.0 §3).
const xmlNamespaceURI = "http://www.w3.org/XML/1998/namespace"

func errParse(format string, args ...any) error {
	return fmt.Errorf("xmlutil: parse: "+format, args...)
}

// Arena blocks are sized from what is left of the input: every start
// tag still to come is one of the '<' not yet consumed, and every
// attribute one of the '=' not yet given a slot. Counting '<' is one
// vectorized pass, where counting end tags ("</") would be a search per
// tag. In a well-formed document every start tag that does not
// self-close pairs with an end tag's '<', so a document's first block
// of elements (and of child links) takes half the '<' left plus room
// for selfClosing self-closing tags; a document with more gets a
// second block sized by the plain bound. maxBlock caps every block,
// since markup-like text in comments and CDATA inflates the bounds; a
// document that outgrows a capped block gets another of its own.
const (
	selfClosing = 4 // a signed envelope's Signature has four
	maxBlock    = 1024
)

type rawAttr struct {
	prefix, local, value string
}

// frame is one open element. The marks are int32 so the frame stays
// five words, which append copies with plain stores.
type frame struct {
	el      *Element
	rawName string // name as written, for end-tag matching
	nsMark  int32  // namespace binding stack depth at open
	kidMark int32  // kids stack length at open
}

// parser is the reusable state of one Parse call. Its stacks survive in
// a sync.Pool between calls; its arena (elems, attrs, children) belongs
// to the document being parsed and is dropped by release, so no block
// holds entries of two documents. An element kept past its document's
// lifetime (the xmldb cache keeps thousands) therefore pins that
// document alone, never the documents parsed after it.
type parser struct {
	s    string
	pos  int
	root *Element

	frames   []frame
	nsPrefix []string // parallel binding stacks; "" prefix = default ns
	nsURI    []string
	scratch  []rawAttr
	kids     []*Element // children of the open elements, one run per frame

	// The document's arena, and the '<' and '=' left to size its blocks
	// (eqs is counted when the first attribute needs a slot).
	elems    []Element
	attrs    []xml.Attr
	children []*Element
	lts, eqs int

	// The arena ParseInPlace reuses: blocks that outlive the document,
	// cleared after each one.
	held struct {
		elems    []Element
		attrs    []xml.Attr
		children []*Element
	}
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

func (p *parser) begin(s string) {
	p.s = s
	p.lts = strings.Count(s, "<")
}

// release drops every reference into the parsed document so pooled
// state cannot pin it (or its backing input string) in memory, and
// drops the arena so the next document starts blocks of its own.
func (p *parser) release() {
	p.s = ""
	p.pos = 0
	p.root = nil
	clear(p.frames[:cap(p.frames)])
	clear(p.nsPrefix[:cap(p.nsPrefix)])
	clear(p.nsURI[:cap(p.nsURI)])
	clear(p.scratch[:cap(p.scratch)])
	// Runs of kids are cleared as their element closes (the stack can
	// grow as wide as the widest document), so only an aborted parse
	// leaves entries, all below the length.
	clear(p.kids)
	p.frames, p.nsPrefix, p.nsURI = p.frames[:0], p.nsPrefix[:0], p.nsURI[:0]
	p.scratch, p.kids = p.scratch[:0], p.kids[:0]
	p.elems, p.attrs, p.children = nil, nil, nil
}

// maxHeld bounds the reused arena: a document whose bounds exceed it
// parses into fresh blocks, so one large document cannot leave every
// later parse clearing a large arena.
const maxHeld = 64

// reuseArena hands the held blocks to an in-place parse, first growing
// them to the document's bounds ('<' for elements and child links, '='
// for attributes) so the whole document fits. It reports false, and
// leaves the parse to fresh blocks, when the bounds exceed maxHeld.
func (p *parser) reuseArena() bool {
	eqs := strings.Count(p.s, "=")
	if p.lts > maxHeld || eqs > maxHeld {
		return false
	}
	h := &p.held
	if len(h.elems) < p.lts {
		h.elems = make([]Element, p.lts)
		h.children = make([]*Element, p.lts)
	}
	if len(h.attrs) < eqs {
		h.attrs = make([]xml.Attr, eqs)
	}
	p.elems, p.attrs, p.children = h.elems, h.attrs, h.children
	return true
}

// clearArena zeroes the held entries the document used, which are the
// blocks' prefixes ahead of what is still free.
func (p *parser) clearArena() {
	h := &p.held
	clear(h.elems[:len(h.elems)-len(p.elems)])
	clear(h.attrs[:len(h.attrs)-len(p.attrs)])
	clear(h.children[:len(h.children)-len(p.children)])
}

// startsLeft is how many start tags still to come a new block makes
// room for: the estimate for a document's first block, the bound after
// it. (Each of those tags, and the end tags of every element still
// open, is one of the '<' left.)
func (p *parser) startsLeft(first bool) int {
	if first {
		return (p.lts + selfClosing) / 2
	}
	return p.lts
}

// blockSize is the length of a new block that must hold n entries
// when about want more are expected.
func blockSize(n, want int) int { return max(n, min(want, maxBlock)) }

func (p *parser) newElement() *Element {
	if len(p.elems) == 0 {
		// The current start tag's '<' is already consumed.
		p.elems = make([]Element, blockSize(1, 1+p.startsLeft(p.elems == nil)))
	}
	el := &p.elems[0]
	p.elems = p.elems[1:]
	return el
}

func (p *parser) newAttrs(n int) []xml.Attr {
	if len(p.attrs) < n {
		if p.attrs == nil {
			// Counted from here on, past the namespace declarations
			// that usually crowd the root.
			p.eqs = n + strings.Count(p.s[p.pos:], "=")
		}
		p.attrs = make([]xml.Attr, blockSize(n, p.eqs))
	}
	a := p.attrs[:n:n]
	p.attrs = p.attrs[n:]
	p.eqs -= n
	return a
}

// newChildren moves a closing element's children from the kids stack
// into the arena. Every child link still to be placed is on the kids
// stack already or belongs to a start tag still to come.
func (p *parser) newChildren(kids []*Element) []*Element {
	n := len(kids)
	if len(p.children) < n {
		p.children = make([]*Element, blockSize(n, len(p.kids)+p.startsLeft(p.children == nil)))
	}
	c := p.children[:n:n]
	copy(c, kids)
	p.children = p.children[n:]
	return c
}

func (p *parser) parse() (*Element, error) {
	s := p.s
	for p.pos < len(s) {
		if s[p.pos] != '<' {
			var span string
			if lt := strings.IndexByte(s[p.pos:], '<'); lt < 0 {
				span = s[p.pos:]
				p.pos = len(s)
			} else {
				span = s[p.pos : p.pos+lt]
				p.pos += lt
			}
			dec, err := decodeText(span, true)
			if err != nil {
				return nil, err
			}
			p.appendText(dec)
			continue
		}
		if p.pos+1 >= len(s) {
			return nil, errParse("unexpected EOF")
		}
		p.lts--
		var err error
		switch s[p.pos+1] {
		case '/':
			err = p.endTag()
		case '!':
			err = p.bang()
		case '?':
			err = p.procInst()
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.frames) != 0 {
		return nil, errParse("unexpected EOF inside %s", p.frames[len(p.frames)-1].el.Name.Local)
	}
	if p.root == nil {
		return nil, errParse("empty document")
	}
	return p.root, nil
}

// appendText adds character data to the open element; data outside the
// root element is validated but discarded, matching the reference
// tree-builder.
func (p *parser) appendText(dec string) {
	if n := len(p.frames); n > 0 {
		el := p.frames[n-1].el
		if el.Text == "" {
			el.Text = dec
		} else {
			el.Text += dec
		}
	}
}

func (p *parser) skipSpace() {
	s := p.s
	for p.pos < len(s) {
		switch s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// name consumes one XML name. ASCII follows the spec's production;
// multi-byte runes are accepted wholesale (a lenient superset of the
// spec's letter tables, matching every document either stack emits).
func (p *parser) name() (string, error) {
	s := p.s
	start := p.pos
	if start >= len(s) {
		return "", errParse("unexpected EOF")
	}
	if c := s[start]; c < 0x80 && !nameStartByte[c] {
		return "", errParse("invalid XML name at byte %d", start)
	}
	i := start
	for i < len(s) {
		c := s[i]
		if c >= 0x80 {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", errParse("invalid UTF-8")
			}
			i += size
			continue
		}
		if !nameByte[c] {
			break
		}
		i++
	}
	p.pos = i
	return s[start:i], nil
}

// splitName separates an optional namespace prefix. A leading or
// trailing colon is kept as part of the local name (as the reference
// decoder does). More than one interior colon is rejected, and so is a
// local part that cannot start a name: Namespaces in XML requires an
// NCName there, and "p:0" would otherwise serialize as "<0/>" wherever
// p is bound to no namespace.
func splitName(n string) (prefix, local string, err error) {
	i := strings.IndexByte(n, ':')
	if i <= 0 || i == len(n)-1 {
		return "", n, nil
	}
	local = n[i+1:]
	if strings.IndexByte(local, ':') >= 0 || local[0] < utf8.RuneSelf && !nameStartByte[local[0]] {
		return "", "", errParse("invalid XML name %s", n)
	}
	return n[:i], local, nil
}

func (p *parser) pushNS(prefix, uri string) {
	p.nsPrefix = append(p.nsPrefix, prefix)
	p.nsURI = append(p.nsURI, uri)
}

func (p *parser) popNS(mark int) {
	p.nsPrefix = p.nsPrefix[:mark]
	p.nsURI = p.nsURI[:mark]
}

// resolve maps a prefix to its namespace URI using the innermost
// binding. Unprefixed attributes are in no namespace; an undeclared
// prefix resolves to itself, the reference decoder's behavior.
func (p *parser) resolve(prefix string, isAttr bool) string {
	if isAttr && prefix == "" {
		return ""
	}
	if prefix == "xml" {
		return xmlNamespaceURI
	}
	for i := len(p.nsPrefix) - 1; i >= 0; i-- {
		if p.nsPrefix[i] == prefix {
			return p.nsURI[i]
		}
	}
	return prefix
}

func (p *parser) startTag() error {
	s := p.s
	p.pos++ // '<'
	raw, err := p.name()
	if err != nil {
		return err
	}
	nsMark := len(p.nsPrefix)
	p.scratch = p.scratch[:0]
	selfClose := false
	for {
		p.skipSpace()
		if p.pos >= len(s) {
			return errParse("unexpected EOF in element <%s>", raw)
		}
		if c := s[p.pos]; c == '>' {
			p.pos++
			break
		} else if c == '/' {
			if p.pos+1 >= len(s) || s[p.pos+1] != '>' {
				return errParse("expected /> closing element <%s>", raw)
			}
			p.pos += 2
			selfClose = true
			break
		}
		aname, err := p.name()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(s) || s[p.pos] != '=' {
			return errParse("attribute %s in element <%s> missing value", aname, raw)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(s) || (s[p.pos] != '"' && s[p.pos] != '\'') {
			return errParse("unquoted or missing attribute value in element <%s>", raw)
		}
		q := s[p.pos]
		p.pos++
		end := strings.IndexByte(s[p.pos:], q)
		if end < 0 {
			return errParse("unexpected EOF in attribute value")
		}
		rawVal := s[p.pos : p.pos+end]
		p.pos += end + 1
		if strings.IndexByte(rawVal, '<') >= 0 {
			return errParse("unescaped < inside quoted string")
		}
		val, err := decodeText(rawVal, false)
		if err != nil {
			return err
		}
		if aname == "xmlns" {
			p.pushNS("", val)
			continue
		}
		apfx, alocal, err := splitName(aname)
		if err != nil {
			return err
		}
		if apfx == "xmlns" {
			p.pushNS(alocal, val)
			continue
		}
		p.scratch = append(p.scratch, rawAttr{prefix: apfx, local: alocal, value: val})
	}

	pfx, local, err := splitName(raw)
	if err != nil {
		return err
	}
	el := p.newElement()
	el.Name = xml.Name{Space: p.resolve(pfx, false), Local: local}
	if n := len(p.scratch); n > 0 {
		attrs := p.newAttrs(n)
		for i, ra := range p.scratch {
			attrs[i] = xml.Attr{
				Name:  xml.Name{Space: p.resolve(ra.prefix, true), Local: ra.local},
				Value: ra.value,
			}
		}
		el.Attrs = attrs
	}
	if len(p.frames) > 0 {
		p.kids = append(p.kids, el)
	} else {
		if p.root != nil {
			return errParse("multiple root elements")
		}
		p.root = el
	}
	if selfClose {
		p.popNS(nsMark)
	} else {
		p.frames = append(p.frames, frame{el: el, rawName: raw, nsMark: int32(nsMark), kidMark: int32(len(p.kids))})
	}
	return nil
}

func (p *parser) endTag() error {
	s := p.s
	p.pos += 2 // "</"
	n := len(p.frames)
	// An end tag nearly always repeats the open element's name as
	// written, which was scanned once already: match it in place when
	// the byte after it cannot continue a name.
	var raw string
	if n > 0 {
		open := p.frames[n-1].rawName
		if end := p.pos + len(open); end < len(s) && s[end] < utf8.RuneSelf && !nameByte[s[end]] &&
			s[p.pos:end] == open {
			raw, p.pos = open, end
		}
	}
	if raw == "" {
		var err error
		if raw, err = p.name(); err != nil {
			return err
		}
	}
	p.skipSpace()
	if p.pos >= len(s) || s[p.pos] != '>' {
		return errParse("invalid characters between </%s and >", raw)
	}
	p.pos++
	if n == 0 {
		return errParse("unbalanced end element %s", raw)
	}
	f := p.frames[n-1]
	if f.rawName != raw {
		return errParse("element <%s> closed by </%s>", f.rawName, raw)
	}
	p.frames = p.frames[:n-1]
	if kids := p.kids[f.kidMark:]; len(kids) > 0 {
		f.el.Children = p.newChildren(kids)
		clear(kids)
		p.kids = p.kids[:f.kidMark]
		// Drop insignificant whitespace in container elements.
		if strings.TrimSpace(f.el.Text) == "" {
			f.el.Text = ""
		}
	}
	p.popNS(int(f.nsMark))
	return nil
}

func (p *parser) bang() error {
	rest := p.s[p.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return p.comment()
	case strings.HasPrefix(rest, "<![CDATA["):
		return p.cdata()
	default:
		return p.directive()
	}
}

func (p *parser) comment() error {
	s := p.s
	p.pos += 4 // "<!--"
	idx := strings.Index(s[p.pos:], "--")
	if idx < 0 {
		return errParse("unexpected EOF in comment")
	}
	if err := validateChars(s[p.pos : p.pos+idx]); err != nil {
		return err
	}
	p.pos += idx
	if p.pos+2 >= len(s) {
		return errParse("unexpected EOF in comment")
	}
	if s[p.pos+2] != '>' {
		return errParse(`invalid sequence "--" not allowed in comments`)
	}
	p.pos += 3
	return nil
}

func (p *parser) cdata() error {
	s := p.s
	p.pos += 9 // "<![CDATA["
	idx := strings.Index(s[p.pos:], "]]>")
	if idx < 0 {
		return errParse("unexpected EOF in CDATA section")
	}
	span := s[p.pos : p.pos+idx]
	p.pos += idx + 3
	if err := validateChars(span); err != nil {
		return err
	}
	if strings.IndexByte(span, '\r') >= 0 {
		span = normalizeCR(span)
	}
	p.appendText(span)
	return nil
}

func (p *parser) directive() error {
	s := p.s
	p.pos += 2 // "<!"
	start := p.pos
	depth := 0
	var quote byte
	for p.pos < len(s) {
		c := s[p.pos]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
		} else {
			switch c {
			case '\'', '"':
				quote = c
			case '<':
				depth++
			case '>':
				if depth == 0 {
					err := validateChars(s[start:p.pos])
					p.pos++
					return err
				}
				depth--
			}
		}
		p.pos++
	}
	return errParse("unexpected EOF in directive")
}

func (p *parser) procInst() error {
	s := p.s
	p.pos += 2 // "<?"
	idx := strings.Index(s[p.pos:], "?>")
	if idx < 0 {
		return errParse("unexpected EOF in processing instruction")
	}
	span := s[p.pos : p.pos+idx]
	p.pos += idx + 2
	if err := validateChars(span); err != nil {
		return err
	}
	// The reference decoder rejects declared non-UTF-8 encodings (it
	// has no CharsetReader configured); match it.
	if strings.HasPrefix(span, "xml") {
		if enc := procInstAttr(span, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return errParse("encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	return nil
}

// procInstAttr extracts a pseudo-attribute value from an <?xml ...?>
// declaration body.
func procInstAttr(body, attr string) string {
	idx := strings.Index(body, attr+"=")
	if idx < 0 {
		return ""
	}
	v := body[idx+len(attr)+1:]
	if len(v) < 2 || (v[0] != '"' && v[0] != '\'') {
		return ""
	}
	end := strings.IndexByte(v[1:], v[0])
	if end < 0 {
		return ""
	}
	return v[1 : 1+end]
}

// Byte classes for the text scanner.
const (
	tcPlain   = iota // copied verbatim
	tcRewrite        // '&' or '\r': span must be rewritten
	tcBracket        // ']': possible unescaped "]]>"
	tcBad            // control characters illegal in XML
	tcHigh           // >= 0x80: multi-byte rune, validate UTF-8
)

var (
	textClass     [256]byte
	nameByte      [256]bool
	nameStartByte [256]bool
)

func init() {
	for i := 0; i < 256; i++ {
		switch {
		case i >= 0x80:
			textClass[i] = tcHigh
		case i == '&' || i == '\r':
			textClass[i] = tcRewrite
		case i == ']':
			textClass[i] = tcBracket
		case i < 0x20 && i != '\t' && i != '\n':
			textClass[i] = tcBad
		default:
			textClass[i] = tcPlain
		}
		c := byte(i)
		isLetter := c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z'
		nameStartByte[i] = isLetter || c == '_' || c == ':'
		nameByte[i] = nameStartByte[i] || c >= '0' && c <= '9' || c == '-' || c == '.'
	}
}

// decodeText validates a character-data or attribute-value span and
// resolves entity references and CR/CRLF normalization. Spans needing
// neither are returned as-is — a zero-copy alias of the input string.
// Nearly every span is plain ASCII, and one pass that ORs the byte
// classes (tcPlain is zero) proves it before any byte is looked at
// twice.
func decodeText(span string, cdataEndIllegal bool) (string, error) {
	var classes byte
	for i := 0; i < len(span); i++ {
		classes |= textClass[span[i]]
	}
	if classes == tcPlain {
		return span, nil
	}
	needs := false
	for i := 0; i < len(span); i++ {
		switch textClass[span[i]] {
		case tcPlain:
		case tcRewrite:
			needs = true
		case tcBracket:
			if cdataEndIllegal && strings.HasPrefix(span[i:], "]]>") {
				return "", errParse("unescaped ]]> not in CDATA section")
			}
		case tcBad:
			return "", errParse("illegal character code %U", rune(span[i]))
		case tcHigh:
			r, size := utf8.DecodeRuneInString(span[i:])
			if r == utf8.RuneError && size == 1 {
				return "", errParse("invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return "", errParse("illegal character code %U", r)
			}
			i += size - 1
		}
	}
	if !needs {
		return span, nil
	}
	return rewriteText(span)
}

// validateChars checks comment/PI/directive/CDATA content, where
// entity references are not recognized.
func validateChars(span string) error {
	for i := 0; i < len(span); i++ {
		c := span[i]
		if c >= 0x80 {
			r, size := utf8.DecodeRuneInString(span[i:])
			if r == utf8.RuneError && size == 1 {
				return errParse("invalid UTF-8")
			}
			if r == 0xFFFE || r == 0xFFFF {
				return errParse("illegal character code %U", r)
			}
			i += size - 1
		} else if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			return errParse("illegal character code %U", rune(c))
		}
	}
	return nil
}

// rewriteText is the slow path: entity references decoded, CR and CRLF
// normalized to LF (XML 1.0 §2.11).
func rewriteText(span string) (string, error) {
	var b strings.Builder
	b.Grow(len(span))
	for i := 0; i < len(span); i++ {
		switch c := span[i]; c {
		case '\r':
			b.WriteByte('\n')
			if i+1 < len(span) && span[i+1] == '\n' {
				i++
			}
		case '&':
			r, width, err := decodeEntity(span[i:])
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			i += width - 1
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

func normalizeCR(span string) string {
	var b strings.Builder
	b.Grow(len(span))
	for i := 0; i < len(span); i++ {
		if c := span[i]; c == '\r' {
			b.WriteByte('\n')
			if i+1 < len(span) && span[i+1] == '\n' {
				i++
			}
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decodeEntity resolves one entity reference at the start of s
// (s[0] == '&'), returning the rune and the reference's byte width.
// Only the five predefined entities and character references are
// recognized; DTD-defined entities are not expanded, matching the
// reference decoder.
func decodeEntity(s string) (rune, int, error) {
	limit := len(s)
	if limit > 34 {
		limit = 34
	}
	end := strings.IndexByte(s[:limit], ';')
	if end < 0 {
		return 0, 0, errParse("invalid character entity (no semicolon)")
	}
	name := s[1:end]
	width := end + 1
	switch name {
	case "lt":
		return '<', width, nil
	case "gt":
		return '>', width, nil
	case "amp":
		return '&', width, nil
	case "apos":
		return '\'', width, nil
	case "quot":
		return '"', width, nil
	}
	if !strings.HasPrefix(name, "#") {
		return 0, 0, errParse("invalid character entity &%s;", name)
	}
	num := name[1:]
	base := 10
	if strings.HasPrefix(num, "x") {
		base = 16
		num = num[1:]
	}
	n, err := strconv.ParseUint(num, base, 32)
	if err != nil {
		return 0, 0, errParse("invalid character entity &%s;", name)
	}
	r := rune(n)
	if !validXMLChar(r) {
		return 0, 0, errParse("illegal character code %U", r)
	}
	return r, width, nil
}

// validXMLChar reports whether r is in the XML 1.0 Char production.
func validXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
