package xmldb

import (
	"errors"
	"testing"
)

// faultyBackend wraps a backend and fails selected operations —
// failure injection for the storage seam.
type faultyBackend struct {
	Backend
	failPut, failGet, failDelete, failIDs bool
}

var errDisk = errors.New("simulated disk failure")

func (f *faultyBackend) Put(c, id string, doc []byte) error {
	if f.failPut {
		return errDisk
	}
	return f.Backend.Put(c, id, doc)
}

func (f *faultyBackend) Get(c, id string) ([]byte, bool, error) {
	if f.failGet {
		return nil, false, errDisk
	}
	return f.Backend.Get(c, id)
}

func (f *faultyBackend) Delete(c, id string) error {
	if f.failDelete {
		return errDisk
	}
	return f.Backend.Delete(c, id)
}

func (f *faultyBackend) CondPut(c, id string, doc []byte, wantExists bool) (bool, error) {
	// The existence probe now lives inside the conditional write, so a
	// failing read surfaces here too.
	if f.failGet || f.failPut {
		return false, errDisk
	}
	return f.Backend.CondPut(c, id, doc, wantExists)
}

func (f *faultyBackend) CondDelete(c, id string) (bool, error) {
	if f.failDelete {
		return false, errDisk
	}
	return f.Backend.CondDelete(c, id)
}

func (f *faultyBackend) IDs(c string) ([]string, error) {
	if f.failIDs {
		return nil, errDisk
	}
	return f.Backend.IDs(c)
}

func TestBackendFailuresPropagate(t *testing.T) {
	fb := &faultyBackend{Backend: NewMemoryBackend()}
	db := New(fb, CostModel{})
	if err := db.Create("c", "1", counterDoc(0)); err != nil {
		t.Fatal(err)
	}

	fb.failGet = true
	if _, err := db.Get("c", "1"); !errors.Is(err, errDisk) {
		t.Fatalf("Get: %v", err)
	}
	if err := db.Update("c", "1", counterDoc(1)); !errors.Is(err, errDisk) {
		t.Fatalf("Update (existence probe): %v", err)
	}
	if err := db.Create("c", "2", counterDoc(0)); !errors.Is(err, errDisk) {
		t.Fatalf("Create (existence probe): %v", err)
	}
	if _, err := db.Exists("c", "1"); !errors.Is(err, errDisk) {
		t.Fatalf("Exists: %v", err)
	}
	fb.failGet = false

	fb.failPut = true
	if err := db.Put("c", "1", counterDoc(2)); !errors.Is(err, errDisk) {
		t.Fatalf("Put: %v", err)
	}
	fb.failPut = false

	fb.failDelete = true
	if err := db.Delete("c", "1"); !errors.Is(err, errDisk) {
		t.Fatalf("Delete: %v", err)
	}
	fb.failDelete = false

	fb.failIDs = true
	if _, err := db.IDs("c"); !errors.Is(err, errDisk) {
		t.Fatalf("IDs: %v", err)
	}
	fb.failIDs = false

	// The store must be fully usable again after the fault clears.
	if _, err := db.Get("c", "1"); err != nil {
		t.Fatalf("recovery: %v", err)
	}
}

func TestGetCorruptDocument(t *testing.T) {
	be := NewMemoryBackend()
	if err := be.Put("c", "bad", []byte("not xml at all")); err != nil {
		t.Fatal(err)
	}
	db := New(be, CostModel{})
	if _, err := db.Get("c", "bad"); err == nil {
		t.Fatal("corrupt document parsed")
	}
}

func TestPerCollectionStats(t *testing.T) {
	db := NewMemory(CostModel{})
	_ = db.Create("a", "1", counterDoc(0))
	_, _ = db.Get("a", "1")
	_ = db.Create("b", "1", counterDoc(0))
	sa := db.CollectionStats("a")
	sb := db.CollectionStats("b")
	if sa.Creates != 1 || sa.Reads != 1 {
		t.Fatalf("a stats = %+v", sa)
	}
	if sb.Creates != 1 || sb.Reads != 0 {
		t.Fatalf("b stats = %+v", sb)
	}
	if s := db.CollectionStats("never"); s != (Stats{}) {
		t.Fatalf("untouched collection stats = %+v", s)
	}
}
