package xmlutil

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// liveHeapBytes reports the bytes held by live and not-yet-swept heap
// objects; after two forced collections that is the live heap.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestParseKeepsNoNeighbours is the retention regression test: an
// element kept from one parse (as the xmldb document cache keeps
// them) must pin only its own document, never the elements or input
// strings of documents parsed after it.
func TestParseKeepsNoNeighbours(t *testing.T) {
	big := "<doc><blob>" + strings.Repeat("x", 64<<10) + "</blob></doc>"
	runtime.GC()
	runtime.GC()
	before := liveHeapBytes()

	kept := MustParse(`<small><id>7</id></small>`).Children[0]
	for i := 0; i < 300; i++ {
		if _, err := Parse([]byte(big)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	after := liveHeapBytes()
	if kept.Text != "7" {
		t.Fatalf("kept element corrupted: %q", kept.Text)
	}
	runtime.KeepAlive(kept)

	const limit = 512 << 10
	if after > before && after-before >= limit {
		t.Fatalf("live heap grew %d KB across 300 dropped 64 KB parses (limit %d KB): "+
			"the kept element pins other documents", (after-before)>>10, limit>>10)
	}
}
