package xmldb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"altstacks/internal/xmlutil"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"memory": NewMemoryBackend(),
		"file":   fb,
	}
}

func counterDoc(v int) *xmlutil.Element {
	return xmlutil.New("urn:c", "Counter").Add(
		xmlutil.NewText("urn:c", "Value", fmt.Sprint(v)))
}

func TestCRUDLifecycle(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := New(be, CostModel{})
			if err := db.Create("counters", "c1", counterDoc(0)); err != nil {
				t.Fatal(err)
			}
			if err := db.Create("counters", "c1", counterDoc(9)); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate create: %v", err)
			}
			got, err := db.Get("counters", "c1")
			if err != nil {
				t.Fatal(err)
			}
			if got.ChildText("urn:c", "Value") != "0" {
				t.Fatalf("value = %q", got.ChildText("urn:c", "Value"))
			}
			if err := db.Update("counters", "c1", counterDoc(5)); err != nil {
				t.Fatal(err)
			}
			got, _ = db.Get("counters", "c1")
			if got.ChildText("urn:c", "Value") != "5" {
				t.Fatal("update not visible")
			}
			if err := db.Delete("counters", "c1"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get("counters", "c1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get after delete: %v", err)
			}
			if err := db.Delete("counters", "c1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete: %v", err)
			}
			if err := db.Update("counters", "c1", counterDoc(1)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("update missing: %v", err)
			}
		})
	}
}

func TestPutUpsert(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := New(be, CostModel{})
			// Out-of-band creation path: Put without a prior Create.
			if err := db.Put("c", "oob", counterDoc(1)); err != nil {
				t.Fatal(err)
			}
			ok, err := db.Exists("c", "oob")
			if err != nil || !ok {
				t.Fatalf("exists = %v, %v", ok, err)
			}
			if err := db.Put("c", "oob", counterDoc(2)); err != nil {
				t.Fatal(err)
			}
			got, _ := db.Get("c", "oob")
			if got.ChildText("urn:c", "Value") != "2" {
				t.Fatal("upsert did not replace")
			}
		})
	}
}

func TestIDsSorted(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := New(be, CostModel{})
			for _, id := range []string{"zz", "aa", "mm"} {
				if err := db.Create("col", id, counterDoc(0)); err != nil {
					t.Fatal(err)
				}
			}
			ids, err := db.IDs("col")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"aa", "mm", "zz"}
			if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
				t.Fatalf("ids = %v", ids)
			}
		})
	}
}

func TestIDsWithSlashes(t *testing.T) {
	// Grid-in-a-Box file resources use "DN/filename" ids.
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			db := New(be, CostModel{})
			id := "CN=alice,O=UVA/results.dat"
			if err := db.Create("files", id, counterDoc(1)); err != nil {
				t.Fatal(err)
			}
			got, err := db.Get("files", id)
			if err != nil || got == nil {
				t.Fatalf("get: %v", err)
			}
			ids, _ := db.IDs("files")
			if len(ids) != 1 || ids[0] != id {
				t.Fatalf("ids = %v", ids)
			}
		})
	}
}

func TestStatsCounting(t *testing.T) {
	db := NewMemory(CostModel{})
	_ = db.Create("c", "1", counterDoc(0))
	_, _ = db.Get("c", "1")
	_, _ = db.Get("c", "1")
	_ = db.Update("c", "1", counterDoc(1))
	_ = db.Delete("c", "1")
	s := db.Stats()
	if s.Creates != 1 || s.Reads != 2 || s.Updates != 1 || s.Deletes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCostModelDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	db := NewMemory(CostModel{Create: 30 * time.Millisecond, Read: 5 * time.Millisecond})
	start := time.Now()
	_ = db.Create("c", "1", counterDoc(0))
	createDur := time.Since(start)
	start = time.Now()
	_, _ = db.Get("c", "1")
	readDur := time.Since(start)
	if createDur < 30*time.Millisecond {
		t.Fatalf("create took %v, cost model not applied", createDur)
	}
	if readDur >= createDur {
		t.Fatalf("read (%v) not faster than create (%v)", readDur, createDur)
	}
}

func TestDocumentIsolation(t *testing.T) {
	// Mutating a document after storing must not change the stored copy.
	db := NewMemory(CostModel{})
	doc := counterDoc(1)
	_ = db.Create("c", "1", doc)
	doc.Children[0].Text = "999"
	got, _ := db.Get("c", "1")
	if got.ChildText("urn:c", "Value") != "1" {
		t.Fatal("stored document aliased caller's tree")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewMemory(CostModel{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				if err := db.Create("c", id, counterDoc(i)); err != nil {
					t.Errorf("create %s: %v", id, err)
					return
				}
				if _, err := db.Get("c", id); err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
				if err := db.Update("c", id, counterDoc(i+1)); err != nil {
					t.Errorf("update %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ids, err := db.IDs("c")
	if err != nil || len(ids) != 8*50 {
		t.Fatalf("ids = %d, err = %v", len(ids), err)
	}
}

func TestFileBackendPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := New(fb, CostModel{})
	if err := db.Create("c", "persist", counterDoc(7)); err != nil {
		t.Fatal(err)
	}
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2 := New(fb2, CostModel{})
	got, err := db2.Get("c", "persist")
	if err != nil {
		t.Fatal(err)
	}
	if got.ChildText("urn:c", "Value") != "7" {
		t.Fatal("document lost across reopen")
	}
}

// Property: after any sequence of create/delete operations, IDs()
// reflects exactly the live set.
func TestPropertyIDsMatchLiveSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := NewMemory(CostModel{})
		live := map[string]bool{}
		for i := 0; i < 60; i++ {
			id := fmt.Sprintf("d%d", r.Intn(20))
			if r.Intn(2) == 0 {
				err := db.Create("c", id, counterDoc(i))
				if live[id] != (err != nil) {
					return false // create must fail iff already live
				}
				live[id] = true
			} else {
				err := db.Delete("c", id)
				if live[id] == (err != nil) {
					return false // delete must succeed iff live
				}
				delete(live, id)
			}
		}
		ids, err := db.IDs("c")
		if err != nil || len(ids) != len(live) {
			return false
		}
		for _, id := range ids {
			if !live[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
