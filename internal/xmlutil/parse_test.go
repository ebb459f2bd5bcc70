package xmlutil

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// ParseReader decodes one XML document from r via encoding/xml. It is
// the reference implementation Parse is differentially tested against;
// the two accept the same documents and produce identical trees.
func ParseReader(r io.Reader) (*Element, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var stack []*Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlutil: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !ncNameLocal(t.Name) {
				return nil, fmt.Errorf("xmlutil: parse: invalid XML name %s", t.Name.Local)
			}
			el := &Element{Name: t.Name}
			for _, a := range t.Attr {
				if !ncNameLocal(a.Name) {
					return nil, fmt.Errorf("xmlutil: parse: invalid XML name %s", a.Name.Local)
				}
				if isNamespaceDecl(a.Name) {
					continue
				}
				el.Attrs = append(el.Attrs, a)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlutil: parse: multiple root elements")
				}
				root = el
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlutil: parse: unbalanced end element %s", t.Name.Local)
			}
			done := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Drop insignificant whitespace in container elements.
			if len(done.Children) > 0 && strings.TrimSpace(done.Text) == "" {
				done.Text = ""
			}
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += string(t)
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored: comments and processing instructions carry no
			// message semantics in any of the WS-* specifications.
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlutil: parse: unexpected EOF inside %s", stack[len(stack)-1].Name.Local)
	}
	if root == nil {
		return nil, fmt.Errorf("xmlutil: parse: empty document")
	}
	return root, nil
}

func isNamespaceDecl(n xml.Name) bool {
	return n.Space == "xmlns" || (n.Space == "" && n.Local == "xmlns")
}

// ncNameLocal applies Parse's name rule to a decoded name: a local part
// must not start with a digit, '-' or '.', the ASCII name characters
// that cannot start a name. encoding/xml leaves an unprefixed name
// whole in Local, where its first character already passed as a name
// start, so only the local part of a prefixed name can fail.
func ncNameLocal(n xml.Name) bool {
	if n.Local == "" {
		return true
	}
	c := n.Local[0]
	return !('0' <= c && c <= '9' || c == '-' || c == '.')
}

// parseCorpus is the differential corpus: every document shape the two
// stacks put on the wire, plus the syntax corners the hand-rolled
// parser must agree with the encoding/xml reference implementation on.
// Inputs where both parsers must fail carry wantErr.
var parseCorpus = []struct {
	name    string
	doc     string
	wantErr bool
}{
	{name: "simple", doc: `<a/>`},
	{name: "text", doc: `<a>hello</a>`},
	{name: "nested", doc: `<a><b><c>x</c></b></a>`},
	{name: "attrs", doc: `<a b="1" c='2'/>`},
	{name: "soap-like", doc: string(MustParseRef(`<x/>`).Marshal())}, // replaced below
	{name: "default-ns", doc: `<a xmlns="urn:u"><b c="1"/></a>`},
	{name: "prefixed", doc: `<p:a xmlns:p="urn:u"><p:b/><q/></p:a>`},
	{name: "ns-redecl", doc: `<a xmlns:p="u"><b xmlns:p="v"><p:c/></b><p:d/></a>`},
	{name: "ns-reset", doc: `<a xmlns="u"><b xmlns=""/></a>`},
	{name: "decl-after-use", doc: `<p:a p:x="1" xmlns:p="urn:u"/>`},
	{name: "undeclared-prefix", doc: `<foo:bar>text</foo:bar>`},
	{name: "undeclared-attr-prefix", doc: `<a foo:b="1"/>`},
	{name: "xml-prefix", doc: `<a xml:lang="en"/>`},
	{name: "dup-attr", doc: `<a b="1" b="2"/>`},
	{name: "no-space-attrs", doc: `<a b="1"c="2"/>`},
	{name: "space-eq", doc: `<a b = "1" />`},
	{name: "entities-text", doc: `<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>`},
	{name: "entities-attr", doc: `<a b="&amp;&#65;&lt;&#x42;"/>`},
	{name: "numeric-entities", doc: `<a>&#65;&#x42;&#x1F600;</a>`},
	{name: "cdata", doc: `<a><![CDATA[x < y & z]]></a>`},
	{name: "cdata-mixed", doc: `<a>x<![CDATA[<b>]]>y</a>`},
	{name: "comment-split-text", doc: `<a>x<!-- c -->y</a>`},
	{name: "comment-only-root", doc: `<!-- pre --><a/><!-- post -->`},
	{name: "pi", doc: `<?xml version="1.0"?><a/>`},
	{name: "pi-encoding-utf8", doc: `<?xml version="1.0" encoding="UTF-8"?><a/>`},
	{name: "pi-inside", doc: `<a><?php echo?></a>`},
	{name: "doctype", doc: `<!DOCTYPE a [<!ELEMENT b (c)>]><a/>`},
	{name: "leading-text", doc: `junk<a/>`},
	{name: "trailing-text", doc: `<a/>junk`},
	{name: "leading-bom", doc: "\uFEFF<a/>"},
	{name: "crlf-text", doc: "<a>x\r\ny\rz</a>"},
	{name: "crlf-attr", doc: "<a b=\"x\r\ny\" c=\"p\rq\"/>"},
	{name: "ws-only-container", doc: "<a>\n  <b/>\n  <c/>\n</a>"},
	{name: "ws-only-leaf", doc: "<a>   </a>"},
	{name: "mixed-content", doc: `<a>x<b/>y</a>`},
	{name: "end-tag-space", doc: `<a ></a >`},
	{name: "name-punct", doc: `<a.b-c_d e.f-g_h="1"/>`},
	{name: "unicode-name", doc: `<héllo wörld="1">déjà</héllo>`},
	{name: "unicode-text", doc: `<a>漢字 ⊕ emoji 🎉</a>`},
	{name: "deep", doc: strings.Repeat("<d>", 40) + "x" + strings.Repeat("</d>", 40)},

	{name: "empty", doc: ``, wantErr: true},
	{name: "ws-only-doc", doc: `   `, wantErr: true},
	{name: "only-comment", doc: `<!-- x -->`, wantErr: true},
	{name: "second-root", doc: `<a/><b/>`, wantErr: true},
	{name: "unclosed", doc: `<a><b></a>`, wantErr: true},
	{name: "stray-end", doc: `</a>`, wantErr: true},
	{name: "tag-eof", doc: `<a`, wantErr: true},
	{name: "attr-eof", doc: `<a b="1`, wantErr: true},
	{name: "bang-eof", doc: `<a><!`, wantErr: true},
	{name: "comment-eof", doc: `<a><!-- x`, wantErr: true},
	{name: "cdata-eof", doc: `<a><![CDATA[x</a>`, wantErr: true},
	{name: "comment-dashes", doc: `<a><!-- -- --></a>`, wantErr: true},
	{name: "bad-entity", doc: `<a>&nope;</a>`, wantErr: true},
	{name: "bare-amp", doc: `<a>a & b</a>`, wantErr: true},
	{name: "entity-nul", doc: `<a>&#0;</a>`, wantErr: true},
	{name: "entity-huge", doc: `<a>&#x110000;</a>`, wantErr: true},
	{name: "entity-upper-x", doc: `<a>&#X41;</a>`, wantErr: true},
	{name: "mismatched", doc: `<a></b>`, wantErr: true},
	{name: "double-colon", doc: `<a:b:c/>`, wantErr: true},
	{name: "digit-name", doc: `<1a/>`, wantErr: true},
	{name: "lt-in-attr", doc: `<a b="<"/>`, wantErr: true},
	{name: "unquoted-attr", doc: `<a b=1/>`, wantErr: true},
	{name: "valueless-attr", doc: `<a b/>`, wantErr: true},
	{name: "cdata-end-in-text", doc: `<a>x ]]> y</a>`, wantErr: true},
	{name: "invalid-utf8", doc: "<a>\xff</a>", wantErr: true},
	{name: "nul-in-text", doc: "<a>\x00</a>", wantErr: true},
	{name: "end-tag-attr", doc: `<a></a b="1">`, wantErr: true},
	{name: "declared-latin1", doc: `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, wantErr: true},
	// A local part must be an NCName. Under a prefix bound to no
	// namespace, "p:0" once parsed and then serialized as "<0/>", which
	// does not parse; under a bound prefix it serialized as "<ns1:0/>".
	{name: "digit-local-empty-ns", doc: `<a xmlns:p=""><p:0/></a>`, wantErr: true},
	{name: "digit-local-bound-ns", doc: `<a><p:0 xmlns:p="u"/></a>`, wantErr: true},
	{name: "dot-local-attr", doc: `<a p:.b="1" xmlns:p="u"/>`, wantErr: true},
	{name: "digit-local-decl", doc: `<a xmlns:0="u"/>`, wantErr: true},
}

// MustParseRef is MustParse via the reference decoder, used to build
// corpus entries from the serializer.
func MustParseRef(doc string) *Element {
	e, err := ParseReader(strings.NewReader(doc))
	if err != nil {
		panic(err)
	}
	return e
}

func init() {
	// Real wire shapes: the serializer's own output for the benchmark
	// documents, escape-heavy content included.
	esc := soapLikeDoc()
	esc.Children[1].Children[0].Add(
		NewText("urn:counter", "note", `a < b && c > "d" — O'Reilly & sons <again>`))
	for i, c := range parseCorpus {
		if c.name == "soap-like" {
			parseCorpus[i].doc = string(esc.Marshal())
		}
	}
}

// equalStrict is exact tree equality: names, attribute order and
// values, untrimmed text, child order. (Equal is too lenient for the
// differential test — it trims text.)
func equalStrict(a, b *Element) bool {
	if a.Name != b.Name || a.Text != b.Text ||
		len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !equalStrict(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestParseDifferential pins the hand-rolled parser to the
// encoding/xml reference implementation across the corpus: identical
// accept/reject decisions and identical trees on accept.
func TestParseDifferential(t *testing.T) {
	for _, tc := range parseCorpus {
		t.Run(tc.name, func(t *testing.T) {
			fast, fastErr := Parse([]byte(tc.doc))
			ref, refErr := ParseReader(bytes.NewReader([]byte(tc.doc)))
			if (fastErr != nil) != (refErr != nil) {
				t.Fatalf("accept/reject disagreement:\n  fast: %v\n  ref:  %v", fastErr, refErr)
			}
			if tc.wantErr && fastErr == nil {
				t.Fatalf("both parsers accepted, want error")
			}
			if !tc.wantErr && fastErr != nil {
				t.Fatalf("both parsers rejected, want success: %v", fastErr)
			}
			if fastErr == nil && !equalStrict(fast, ref) {
				t.Fatalf("tree mismatch:\n  fast: %s\n  ref:  %s", fast, ref)
			}
		})
	}
}

// TestParseRoundTripGenerated fuzz-adjacent coverage: generated trees
// survive Marshal → Parse with both parsers agreeing.
func TestParseRoundTripGenerated(t *testing.T) {
	docs := []*Element{
		soapLikeDoc(),
		buildWide(200),
		buildDeep(60),
	}
	for i, doc := range docs {
		data := doc.Marshal()
		fast, err := Parse(data)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		ref, err := ParseReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("doc %d ref: %v", i, err)
		}
		if !equalStrict(fast, ref) {
			t.Fatalf("doc %d: fast/ref tree mismatch", i)
		}
		if !Equal(doc, fast) {
			t.Fatalf("doc %d: round trip mismatch", i)
		}
	}
}

// TestParseInputAliasing: the returned tree must not alias the
// caller's byte slice — the container recycles request buffers.
func TestParseInputAliasing(t *testing.T) {
	data := []byte(`<a b="value">text-content</a>`)
	el, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if el.Text != "text-content" || el.AttrValue("", "b") != "value" {
		t.Fatalf("tree aliases caller buffer: %s", el)
	}
}

// TestParseConcurrent exercises the pooled parser state under
// concurrent use (run with -race).
func TestParseConcurrent(t *testing.T) {
	data := soapLikeDoc().Marshal()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				el, err := Parse(data)
				if err != nil {
					done <- err
					return
				}
				if el.Name.Local != "Envelope" {
					done <- fmt.Errorf("bad root %v", el.Name)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParseErrorsMentionPackage keeps error text grep-able.
func TestParseErrorsMentionPackage(t *testing.T) {
	_, err := Parse([]byte(`<a>`))
	if err == nil || !strings.Contains(err.Error(), "xmlutil: parse") {
		t.Fatalf("err = %v", err)
	}
	_, err = Parse(nil)
	if err == nil || !strings.Contains(err.Error(), "empty document") {
		t.Fatalf("err = %v", err)
	}
}
