package xmldb

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileBackend persists documents as files under root/collection/id.xml.
// Document ids are percent-encoded so ids containing path separators
// (for example Grid-in-a-Box file EPRs of the form "userDN/filename",
// paper §4.2.2) remain single path components.
//
// Durability: Put and CondPut write id.xml.tmp and rename it over
// id.xml, with no fsync of the file or its directory. A write that has
// returned survives the process being killed: the rename is atomic, so
// a reader sees the old document or the new one, never a torn mix. It
// does not survive an OS crash or power loss. A kill mid-write leaves
// a stray id.xml.tmp, which IDs skips and the next write of that id
// replaces.
type FileBackend struct {
	root string
	mu   sync.RWMutex
}

// NewFileBackend creates (if needed) and opens a store rooted at dir.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("xmldb: open file backend: %w", err)
	}
	return &FileBackend{root: dir}, nil
}

func (f *FileBackend) path(collection, id string) string {
	return filepath.Join(f.root, url.PathEscape(collection), url.PathEscape(id)+".xml")
}

// Put implements Backend.
func (f *FileBackend) Put(collection, id string, doc []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.path(collection, id)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Get implements Backend.
func (f *FileBackend) Get(collection, id string) ([]byte, bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	data, err := os.ReadFile(f.path(collection, id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Has implements Haser: one stat call, no document bytes read.
func (f *FileBackend) Has(collection, id string) (bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, err := os.Stat(f.path(collection, id))
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// CondPut implements Backend: the existence probe and the write happen
// under one writer lock, so it is atomic with respect to the other
// Backend methods on this store.
func (f *FileBackend) CondPut(collection, id string, doc []byte, wantExists bool) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.path(collection, id)
	_, err := os.Stat(p)
	exists := err == nil
	if err != nil && !os.IsNotExist(err) {
		return false, err
	}
	if exists != wantExists {
		return false, nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return false, err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, p)
}

// CondDelete implements Backend.
func (f *FileBackend) CondDelete(collection, id string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(f.path(collection, id))
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// Delete implements Backend.
func (f *FileBackend) Delete(collection, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(f.path(collection, id))
	if os.IsNotExist(err) {
		return fmt.Errorf("xmldb: delete missing %s/%s", collection, id)
	}
	return err
}

// IDs implements Backend.
func (f *FileBackend) IDs(collection string) ([]string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	entries, err := os.ReadDir(filepath.Join(f.root, url.PathEscape(collection)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".xml") {
			continue
		}
		id, err := url.PathUnescape(strings.TrimSuffix(name, ".xml"))
		if err != nil {
			continue // foreign file in the store directory
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}
