package xmlutil

import (
	"bytes"
	"slices"
	"testing"
)

// Namespaces, names and texts the fuzzed trees draw from: well-known
// URIs that take their own prefixes, URIs that take generated ones
// (among them strings spelled like well-known and generated prefixes),
// no namespace, and texts that need escaping.
var (
	fuzzSpaces = []string{"", "http://schemas.xmlsoap.org/soap/envelope/",
		"http://schemas.xmlsoap.org/ws/2004/08/addressing", "http://docs.oasis-open.org/wsn/b-2",
		"http://docs.oasis-open.org/wsrf/rp-2", "urn:a", "urn:b", "urn:c", "ns1", "ns2", "soap", "wsa"}
	fuzzLocals = []string{"a", "b", "Sub", "kind"}
	fuzzTexts  = []string{"", "x", "1 < 2", `a&b "q" 'r'`, ">"}
)

// treeBytes draws a tree from fuzz input, one byte per choice; past the
// input's end every choice is the first.
type treeBytes []byte

func (d *treeBytes) pick(n int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % n
	*d = (*d)[1:]
	return v
}

func (d *treeBytes) element(depth int) *Element {
	e := NewText(fuzzSpaces[d.pick(len(fuzzSpaces))], fuzzLocals[d.pick(len(fuzzLocals))], fuzzTexts[d.pick(len(fuzzTexts))])
	for range d.pick(3) {
		e.SetAttr(fuzzSpaces[d.pick(len(fuzzSpaces))], fuzzLocals[d.pick(len(fuzzLocals))], fuzzTexts[d.pick(len(fuzzTexts))])
	}
	if depth > 0 {
		e.Children = d.elements(depth-1, 3)
	}
	return e
}

// elements draws up to max-1 elements.
func (d *treeBytes) elements(depth, max int) []*Element {
	var out []*Element
	for range d.pick(max) {
		out = append(out, d.element(depth))
	}
	return out
}

// prefixMap is the namespace binding a serialization of e declares.
func prefixMap(e *Element) (uris, prefixes []string) {
	var enc encoder
	enc.bindTree(e)
	return enc.uris, enc.prefixes
}

// FuzzTemplate draws a tree with a hole (some children of one element,
// after some that are not) and a second set of elements for the hole.
// The template must be the tree's serialization, and Fill must write
// the serialization of the tree with the second set in the hole, or
// refuse; it must refuse whenever that serialization binds the
// namespaces other than the template's did.
func FuzzTemplate(f *testing.F) {
	// Every choice the first, then arbitrary choices.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 5, 2, 1, 0, 1, 0, 1, 3, 2, 0, 0, 0, 1, 3, 2, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add(bytes.Repeat([]byte{7, 3, 11, 2}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := treeBytes(data)
		root := d.element(1)
		hole := root
		if d.pick(2) == 1 {
			hole = d.element(0)
			root.Children = slices.Insert(root.Children, d.pick(len(root.Children)+1), hole)
		}
		from := len(hole.Children)
		first := append([]*Element{d.element(1)}, d.elements(1, 3)...)
		second := d.elements(1, 4)
		hole.Children = append(hole.Children, first...)

		var got, want bytes.Buffer
		tmpl := root.MarshalTemplate(&got, hole, from)
		if tmpl == nil {
			t.Fatal("no template of a tree with its hole")
		}
		root.MarshalTo(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("template render differs from MarshalTo\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
		}
		uris, prefixes := prefixMap(root)

		hole.Children = append(hole.Children[:from], second...)
		got.Reset()
		want.Reset()
		filled := tmpl.Fill(&got, second)
		root.MarshalTo(&want)
		uris2, prefixes2 := prefixMap(root)
		switch {
		case filled && !bytes.Equal(got.Bytes(), want.Bytes()):
			t.Fatalf("fill differs from MarshalTo\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
		case filled && (!slices.Equal(uris, uris2) || !slices.Equal(prefixes, prefixes2)):
			t.Fatalf("fill accepted a hole that binds %v as %v, not %v as %v", uris2, prefixes2, uris, prefixes)
		case !filled && got.Len() != 0:
			t.Fatalf("a refused fill wrote %q", got.Bytes())
		}
	})
}

// TestTemplateNeedsOneHole: no template is made of a hole that is not
// in the tree, appears in it twice, or has no child at its index.
func TestTemplateNeedsOneHole(t *testing.T) {
	h := New("urn:a", "h").Add(New("urn:a", "c"))
	var b bytes.Buffer
	for name, tc := range map[string]struct {
		root *Element
		from int
	}{
		"absent":   {New("urn:a", "r"), 0},
		"twice":    {New("urn:a", "r").Add(h, h), 0},
		"no child": {New("urn:a", "r").Add(h), 1},
	} {
		if tmpl := tc.root.MarshalTemplate(&b, h, tc.from); tmpl != nil {
			t.Errorf("%s: made a template", name)
		}
	}
	if tmpl := New("urn:a", "r").Add(h).MarshalTemplate(&b, h, 0); tmpl == nil || tmpl.Fill(&b) {
		t.Error("a template of one hole was not made, or took an empty fill")
	}
}
