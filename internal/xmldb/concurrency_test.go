package xmldb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentHammer drives Get/Update/Delete (plus
// Create/Exists/IDs) from many goroutines against one in-memory
// backend — run under -race in CI, it is the memory-safety gate for
// the striped document cache. A small cache cap keeps the CLOCK hand
// sweeping the whole time.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		iters   = 60
		cols    = 3
	)
	db := newWithCacheCap(NewMemoryBackend(), CostModel{}, 64)

	// Shared documents every goroutine reads and updates.
	for c := 0; c < cols; c++ {
		for i := 0; i < 8; i++ {
			if err := db.Create(fmt.Sprintf("shared-%d", c), id(i), counterDoc(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				shared := fmt.Sprintf("shared-%d", i%cols)
				own := fmt.Sprintf("own-%d", w)
				ownID := id(i)

				if err := db.Create(own, ownID, counterDoc(i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := db.Get(shared, id(i%8)); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("get shared: %v", err)
					return
				}
				if err := db.Update(shared, id(i%8), counterDoc(w*1000+i)); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("update shared: %v", err)
					return
				}
				if _, err := db.Exists(shared, id(i%8)); err != nil {
					t.Errorf("exists: %v", err)
					return
				}
				if _, err := db.IDs(own); err != nil {
					t.Errorf("ids: %v", err)
					return
				}
				if i%2 == 1 {
					if err := db.Delete(own, ownID); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every goroutine deleted its odd-iteration docs, so each own-w
	// collection holds exactly the even-iteration ones.
	for w := 0; w < workers; w++ {
		ids, err := db.IDs(fmt.Sprintf("own-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != iters/2 {
			t.Fatalf("own-%d has %d docs, want %d", w, len(ids), iters/2)
		}
	}
	// Shared documents survived the update storm and still parse.
	for c := 0; c < cols; c++ {
		for i := 0; i < 8; i++ {
			if _, err := db.Get(fmt.Sprintf("shared-%d", c), id(i)); err != nil {
				t.Fatalf("post-hammer get: %v", err)
			}
		}
	}
}
