package xmldb

import (
	"fmt"
	"sync/atomic"
	"testing"

	"altstacks/internal/xmlutil"
)

// benchCollection loads n counter-style documents into a fresh
// zero-cost database (the CostModel pause would swamp the Go-side work
// this benchmark isolates; production paths charge it on top).
func benchCollection(b *testing.B, n int) *DB {
	b.Helper()
	db := NewMemory(CostModel{})
	for i := 0; i < n; i++ {
		doc := xmlutil.New("", "Counter").Add(
			xmlutil.NewText("", "cv", fmt.Sprint(i)),
			xmlutil.NewText("", "owner", fmt.Sprintf("CN=user-%03d", i%16)),
		)
		if err := db.Create("c", fmt.Sprintf("id-%04d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkGetHot measures repeated reads of one document from an
// unchanged collection.
func BenchmarkGetHot(b *testing.B) {
	db := benchCollection(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get("c", "id-0003"); err != nil {
			b.Fatal(err)
		}
	}
}

// subSizedDoc builds a document the size of a subscription resource
// (~1KB marshaled: EPR, topic, health ledger, policy blocks) — what
// the Notify path actually stores and re-parses.
func subSizedDoc(n int) *xmlutil.Element {
	doc := xmlutil.New("", "Counter").Add(
		xmlutil.NewText("", "cv", fmt.Sprint(n)),
	)
	for i := 0; i < 24; i++ {
		doc.Add(xmlutil.NewText("", fmt.Sprintf("field%02d", i),
			fmt.Sprintf("value-%d-%d-abcdefghijklmnop", n, i)))
	}
	return doc
}

// splitmix64 decorrelates op, collection, and document choices without
// math/rand locking inside the measured loop.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BenchmarkParallelMixed is the storage-layer contention benchmark: at
// least 8 client goroutines issuing a mix of point reads, updates,
// presence probes and listings against subscription-sized documents
// with a zero CostModel, so every nanosecond measured is this stack's
// own lock, cache, and parse overhead.
//
// This is the workload on which the single-lock, whole-collection-
// invalidation design collapsed: every update evicted the entire
// collection's parsed docs, so reads of its neighbours re-parsed.
// Per-document generations keep them cache-hot (the before/after
// table lives in EXPERIMENTS.md).
func BenchmarkParallelMixed(b *testing.B) {
	const cols, docsPer = 4, 128
	db := NewMemory(CostModel{})
	for c := 0; c < cols; c++ {
		for i := 0; i < docsPer; i++ {
			if err := db.Create(fmt.Sprintf("col-%d", c), fmt.Sprintf("id-%04d", i), subSizedDoc(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	var gseed atomic.Uint64
	b.SetParallelism(8) // >= 8 goroutines even on a 1-core runner
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		state := splitmix64(gseed.Add(1) * 0x9e3779b97f4a7c15)
		for pb.Next() {
			state = splitmix64(state)
			r := state
			col := fmt.Sprintf("col-%d", r%cols)
			id := fmt.Sprintf("id-%04d", (r>>8)%docsPer)
			switch pick := (r >> 32) % 20; {
			case pick < 11: // 55% point reads
				if _, err := db.Get(col, id); err != nil {
					b.Fatal(err)
				}
			case pick < 18: // 35% updates (health write-through)
				if err := db.Update(col, id, subSizedDoc(int(r%100))); err != nil {
					b.Fatal(err)
				}
			case pick < 19: // 5% presence probes
				if _, err := db.Exists(col, id); err != nil {
					b.Fatal(err)
				}
			default: // 5% listings
				if _, err := db.IDs(col); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
