package xmldb

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"altstacks/internal/xmlutil"
)

func id(i int) string { return fmt.Sprintf("id-%04d", i) }

func counterValue(t *testing.T, doc *xmlutil.Element) int64 {
	t.Helper()
	v, err := strconv.ParseInt(doc.ChildText("urn:c", "Value"), 10, 64)
	if err != nil {
		t.Fatalf("counter value: %v", err)
	}
	return v
}

// countingBackend counts raw Get calls, to prove the conditional
// writes removed the existence pre-read.
type countingBackend struct {
	Backend
	gets atomic.Int64
}

func (c *countingBackend) Get(col, id string) ([]byte, bool, error) {
	c.gets.Add(1)
	return c.Backend.Get(col, id)
}

// TestGetReusesParsedDocument: repeated Gets of an unchanged document
// parse once but still count as reads.
func TestGetReusesParsedDocument(t *testing.T) {
	db := NewMemory(CostModel{})
	if err := db.Create("c", "1", counterDoc(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Get("c", "1"); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.Parses != 1 {
		t.Fatalf("parses = %d, want 1", s.Parses)
	}
	if s.Reads != 4 {
		t.Fatalf("reads = %d, want 4 (cache hits still count as reads)", s.Reads)
	}
	cs := db.CollectionStats("c")
	if cs.Parses != 1 || cs.Reads != 4 {
		t.Fatalf("collection stats = %+v", cs)
	}
}

// TestWriteInvalidatesDocCache: every mutation path (Update, Put,
// Delete+Create) bumps the collection generation and forces a re-parse.
func TestWriteInvalidatesDocCache(t *testing.T) {
	db := NewMemory(CostModel{})
	if err := db.Create("c", "1", counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	read := func(want int64) {
		t.Helper()
		doc, err := db.Get("c", "1")
		if err != nil {
			t.Fatal(err)
		}
		if got := counterValue(t, doc); got != want {
			t.Fatalf("value = %d, want %d", got, want)
		}
	}
	read(1)
	if err := db.Update("c", "1", counterDoc(2)); err != nil {
		t.Fatal(err)
	}
	read(2)
	if err := db.Put("c", "1", counterDoc(3)); err != nil {
		t.Fatal(err)
	}
	read(3)
	if err := db.Delete("c", "1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Create("c", "1", counterDoc(4)); err != nil {
		t.Fatal(err)
	}
	read(4)
	if s := db.Stats(); s.Parses != 4 {
		t.Fatalf("parses = %d, want 4 (each write invalidates)", s.Parses)
	}
}

// TestCachedGetReturnsPrivateClone: mutating a returned tree must not
// leak into later reads — the cache hands out clones, never the
// master copy.
func TestCachedGetReturnsPrivateClone(t *testing.T) {
	db := NewMemory(CostModel{})
	if err := db.Create("c", "1", counterDoc(5)); err != nil {
		t.Fatal(err)
	}
	first, err := db.Get("c", "1")
	if err != nil {
		t.Fatal(err)
	}
	first.ChildLocal("Value").SetText("999")
	second, err := db.Get("c", "1")
	if err != nil {
		t.Fatal(err)
	}
	if counterValue(t, second) != 5 {
		t.Fatal("caller mutation leaked into the document cache")
	}
}

// TestCachedGetStillChargesCostModel: the cache removes parse work,
// never modeled Xindice latency — the figure shapes depend on it.
func TestCachedGetStillChargesCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const readCost = 25 * time.Millisecond
	db := NewMemory(CostModel{Read: readCost})
	if err := db.Create("c", "1", counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("c", "1"); err != nil { // warm
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := db.Get("c", "1"); err != nil { // cache-hot
		t.Fatal(err)
	}
	if hot := time.Since(start); hot < readCost {
		t.Fatalf("cache-hot read took %v, want >= %v (cost model must still apply)", hot, readCost)
	}
	if s := db.Stats(); s.Reads != 2 || s.Parses != 1 {
		t.Fatalf("reads = %d, parses = %d, want 2 and 1 (cache hits still count as reads)", s.Reads, s.Parses)
	}
}

// TestPerDocumentInvalidation is the cache-scaling acceptance pin:
// updating document A must not force a re-parse of cached document B
// in the same collection. Under whole-collection generations (the old
// design), the Update of "a" evicted every parsed doc — the Notify
// path's biggest avoidable cache-miss source.
func TestPerDocumentInvalidation(t *testing.T) {
	db := NewMemory(CostModel{})
	const docs = 8
	for i := 0; i < docs; i++ {
		if err := db.Create("c", id(i), counterDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// readAll reads every live document once.
	readAll := func() {
		t.Helper()
		ids, err := db.IDs("c")
		if err != nil {
			t.Fatal(err)
		}
		for _, docID := range ids {
			if _, err := db.Get("c", docID); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the cache: every document parsed exactly once.
	readAll()
	if p := db.CollectionStats("c").Parses; p != docs {
		t.Fatalf("warm parses = %d, want %d", p, docs)
	}

	// Update doc 0; re-read doc 3 and every document. Only doc 0
	// re-parses.
	if err := db.Update("c", id(0), counterDoc(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("c", id(3)); err != nil {
		t.Fatal(err)
	}
	readAll()
	if p := db.CollectionStats("c").Parses; p != docs+1 {
		t.Fatalf("parses after single-doc update = %d, want %d (only the updated doc re-parses)", p, docs+1)
	}

	// The updated content is really served (no stale cache).
	doc, err := db.Get("c", id(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, doc); got != 100 {
		t.Fatalf("value = %d, want 100", got)
	}

	// Delete is equally surgical.
	if err := db.Delete("c", id(1)); err != nil {
		t.Fatal(err)
	}
	readAll()
	if p := db.CollectionStats("c").Parses; p != docs+1 {
		t.Fatalf("parses after delete = %d, want %d (deleting one doc re-parses nothing)", p, docs+1)
	}
}

// TestClockEvictionKeepsHotDocuments: under cap pressure, a document
// referenced since the hand's last sweep survives (second chance) and
// a cold one is evicted — deterministically, unlike the old arbitrary
// map-iteration eviction.
func TestClockEvictionKeepsHotDocuments(t *testing.T) {
	// One-entry stripes (cap 16 over 16 stripes) would make every fill
	// an eviction; use a cap that gives each stripe a few slots and
	// drive enough documents through one collection to overflow them.
	db := newWithCacheCap(NewMemoryBackend(), CostModel{}, 32)
	const hot = "hot-doc"
	if err := db.Create("c", hot, counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("c", hot); err != nil { // cache the hot doc
		t.Fatal(err)
	}
	// Interleave cold fills with hot touches: the touches keep the ref
	// bit set, so each stripe's hand evicts cold entries around it.
	for i := 0; i < 64; i++ {
		if err := db.Create("c", id(i), counterDoc(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get("c", id(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get("c", hot); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats().Parses
	if _, err := db.Get("c", hot); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats().Parses; after != before {
		t.Fatalf("hot document was evicted under cap pressure (parses %d→%d)", before, after)
	}
}

// probeBackend counts raw Gets while inheriting the fast Has of the
// memory backend.
type probeBackend struct {
	*MemoryBackend
	gets atomic.Int64
}

func (p *probeBackend) Get(col, id string) ([]byte, bool, error) {
	p.gets.Add(1)
	return p.MemoryBackend.Get(col, id)
}

// TestExistsUsesHasProbe: Exists answers through Backend.Has — no
// document bytes are copied just to report presence. A backend without
// Has still works via the Get fallback.
func TestExistsUsesHasProbe(t *testing.T) {
	pb := &probeBackend{MemoryBackend: NewMemoryBackend()}
	db := New(pb, CostModel{})
	if err := db.Create("c", "1", counterDoc(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ok, err := db.Exists("c", "1"); err != nil || !ok {
			t.Fatalf("exists = %v, %v", ok, err)
		}
	}
	if ok, err := db.Exists("c", "absent"); err != nil || ok {
		t.Fatalf("exists(absent) = %v, %v", ok, err)
	}
	if g := pb.gets.Load(); g != 0 {
		t.Fatalf("Exists copied document bytes %d times; want 0 (Backend.Has)", g)
	}
	if s := db.CollectionStats("c"); s.Reads != 4 {
		t.Fatalf("reads = %d, want 4 (every Exists counts as a read)", s.Reads)
	}

	// Fallback: a Backend that lacks Has (countingBackend embeds the
	// interface, hiding the concrete Has) degrades to Get.
	cb := &countingBackend{Backend: NewMemoryBackend()}
	db2 := New(cb, CostModel{})
	if err := db2.Create("c", "1", counterDoc(0)); err != nil {
		t.Fatal(err)
	}
	if ok, err := db2.Exists("c", "1"); err != nil || !ok {
		t.Fatalf("fallback exists = %v, %v", ok, err)
	}
	if g := cb.gets.Load(); g != 1 {
		t.Fatalf("fallback gets = %d, want 1", g)
	}
}

// TestCondPutSkipsPreRead: Create/Update/Delete no longer issue the
// existence probe as a separate backend Get.
func TestCondPutSkipsPreRead(t *testing.T) {
	be := &countingBackend{Backend: NewMemoryBackend()}
	db := New(be, CostModel{})
	if err := db.Create("c", "1", counterDoc(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("c", "1", counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("c", "1"); err != nil {
		t.Fatal(err)
	}
	if be.gets.Load() != 0 {
		t.Fatalf("backend gets = %d, want 0 (existence probes must use CondPut/CondDelete)", be.gets.Load())
	}
}
