package xmlutil

import (
	"bytes"
	"slices"
)

// Template is one serialization of an element tree cut around a hole, a
// run of one element's children, kept with the prefix map it used.
// Every namespace is declared on the root, in first-use order, so the
// bytes around the hole serve another tree that differs in the hole
// only when that hole binds the same new namespaces in the same order;
// Fill checks that before it writes.
type Template struct {
	out            []byte // the serialization without the hole's bytes
	cut            int    // where the hole was in out
	uris, prefixes []string
	bound          [2]int // uris[bound[0]:bound[1]] were first bound in the hole
}

// MarshalTemplate appends e's serialization to b, as MarshalTo does, and
// returns it as a Template whose hole is hole's children from the one at
// index from on. It returns nil unless hole has a child at from and
// appears in e's tree once.
func (e *Element) MarshalTemplate(b *bytes.Buffer, hole *Element, from int) *Template {
	enc := encPool.Get().(*encoder)
	enc.hole, enc.holeAt = hole, from
	start := b.Len()
	enc.bindTree(e)
	enc.writeElement(b, e, true)
	var t *Template
	if enc.holes == 1 {
		out := b.Bytes()
		t = &Template{
			out:      slices.Concat(out[start:enc.cut[0]], out[enc.cut[1]:]),
			cut:      enc.cut[0] - start,
			uris:     slices.Clone(enc.uris),
			prefixes: slices.Clone(enc.prefixes),
			bound:    enc.bound,
		}
	}
	enc.reset()
	encPool.Put(enc)
	return t
}

// Fill appends the template's tree with the elements of groups, in
// order, in its hole: the bytes MarshalTo writes for that tree. It
// writes nothing and returns false unless there is at least one element
// and, as MarshalTo binds them, they bind the namespaces the template's
// hole bound first, in the same order, and no other.
func (t *Template) Fill(b *bytes.Buffer, groups ...[]*Element) bool {
	n, filled := 0, false
	for _, g := range groups {
		for _, e := range g {
			if !t.fits(e, &n) {
				return false
			}
			filled = true
		}
	}
	if !filled || t.bound[0]+n != t.bound[1] {
		return false
	}
	// The encoder only reads the template's prefix map: it binds nothing.
	enc := encoder{uris: t.uris, prefixes: t.prefixes}
	b.Write(t.out[:t.cut])
	for _, g := range groups {
		for _, e := range g {
			enc.writeElement(b, e, false)
		}
	}
	b.Write(t.out[t.cut:])
	return true
}

// fits walks e's tree in bindTree's order and reports whether each
// namespace it uses is bound before the hole or is the next one the hole
// bound first; n counts the latter.
func (t *Template) fits(e *Element, n *int) bool {
	ok := t.binds(e.Name.Space, n)
	for _, a := range e.Attrs {
		ok = ok && t.binds(a.Name.Space, n)
	}
	for _, c := range e.Children {
		ok = ok && t.fits(c, n)
	}
	return ok
}

func (t *Template) binds(uri string, n *int) bool {
	next := t.bound[0] + *n
	if next < t.bound[1] && t.uris[next] == uri {
		*n++
		return true
	}
	return uri == "" || slices.Contains(t.uris[:next], uri)
}
