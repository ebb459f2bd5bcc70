// Package xmldb is an XML document database modeled on Apache Xindice,
// the backend both implementations in the paper share (§3.3 — "both
// approaches rely on efficient storage of XML-based resources, so it
// is not surprising that the same XML database (Xindice) was used").
//
// Documents live in named collections and are keyed by string ids.
//
// A CostModel injects deterministic per-operation latency so the
// benchmark harness reproduces the paper's dominant performance
// effect: "Both counter implementations' performance is dominated by
// Xindice. Creating resources (and adding them to the database) in
// particular is always slower than reading or updating them" (§4.1.3).
// The in-process store itself is microseconds; the model restores the
// 2005-era database floor. Unit tests use the zero CostModel.
package xmldb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// Registry mirrors of the per-instance Stats counters: process-wide
// aggregates across every DB instance, exposed on /metrics. The
// per-instance atomics stay authoritative for Stats()/tests.
var (
	opCreates = obs.NewCounter("ogsa_xmldb_ops_total", `op="create"`, "xmldb operations by kind")
	opReads   = obs.NewCounter("ogsa_xmldb_ops_total", `op="read"`, "xmldb operations by kind")
	opUpdates = obs.NewCounter("ogsa_xmldb_ops_total", `op="update"`, "xmldb operations by kind")
	opDeletes = obs.NewCounter("ogsa_xmldb_ops_total", `op="delete"`, "xmldb operations by kind")

	parsesTotal = obs.NewCounter("ogsa_xmldb_parses_total", "",
		"documents decoded from backend bytes (cache misses)")
)

// Sentinel errors, testable with errors.Is.
var (
	ErrNotFound = errors.New("xmldb: document not found")
	ErrExists   = errors.New("xmldb: document already exists")
)

// CostModel gives each database operation a fixed latency floor.
type CostModel struct {
	Create time.Duration
	Read   time.Duration
	Update time.Duration
	Delete time.Duration
}

// XindiceProfile approximates the relative operation costs the paper
// measured against Xindice on the 2005 testbed, scaled down ~4x so the
// benchmark suite completes quickly: creation (index + allocation) is
// by far the slowest, updates cost more than reads. Only the ratios
// matter for reproducing the figure shapes.
var XindiceProfile = CostModel{
	Create: 6 * time.Millisecond,
	Read:   1200 * time.Microsecond,
	Update: 2 * time.Millisecond,
	Delete: 1800 * time.Microsecond,
}

// Stats counts operations, for tests that assert access patterns (for
// example, that the WSRF resource cache eliminates the read before a
// write that the WS-Transfer path performs).
type Stats struct {
	Creates int64
	Reads   int64
	Updates int64
	Deletes int64
	// Parses counts documents actually decoded from backend bytes.
	// Reads served from the parsed-document cache do not increment
	// it, so Parses < Reads measures cache effectiveness.
	Parses int64
}

// Backend is the raw byte store under the database. The paper's
// WSRF.NET supported multiple backends (SQL Server, Xindice,
// in-memory, custom); this interface is the equivalent seam.
type Backend interface {
	// Put stores doc under (collection, id), overwriting silently.
	Put(collection, id string, doc []byte) error
	// Get retrieves the document; ok is false when absent.
	Get(collection, id string) (doc []byte, ok bool, err error)
	// Delete removes the document; deleting an absent id is an error.
	Delete(collection, id string) error
	// IDs lists document ids in the collection, sorted.
	IDs(collection string) ([]string, error)
	// CondPut stores doc only when the id's current existence equals
	// wantExists, atomically with respect to other writers; stored is
	// false (with nil err) when the precondition fails. It lets
	// Create/Update make one backend round trip instead of a read
	// followed by a write.
	CondPut(collection, id string, doc []byte, wantExists bool) (stored bool, err error)
	// CondDelete removes the document if present; removed is false
	// (with nil err) when it was absent.
	CondDelete(collection, id string) (removed bool, err error)
}

// Haser is the optional presence-probe extension of Backend. Backends
// that can answer "is this id stored?" without materializing the
// document bytes implement it; DB.Exists uses it when available and
// falls back to a full Get otherwise, so third-party Backend
// implementations keep working unchanged.
type Haser interface {
	Has(collection, id string) (bool, error)
}

// backendHas probes presence through the fast path when the backend
// offers one, copying the document bytes only as a fallback.
func backendHas(b Backend, collection, id string) (bool, error) {
	if h, ok := b.(Haser); ok {
		return h.Has(collection, id)
	}
	_, ok, err := b.Get(collection, id)
	return ok, err
}

// DocCacheCap is the resident parsed-document cache capacity. It is
// exported so harnesses (cmd/loadgen's soak invariants) can assert
// resident growth stays under the cap without reaching into cache
// internals.
const DocCacheCap = 4096

// DB is the document database: a backend plus cost model and stats.
//
// DB memoizes the inbound-path work that the cost model does NOT
// account for (the model reproduces 2005-era Xindice latency; the
// parsing overhead on top of it is this stack's own): parsed
// documents, stamped with a per-document generation that a write to
// that document bumps, so Get reuses trees until the backing bytes
// change — and a write to one document never evicts its collection
// neighbours.
//
// The cache is lock-striped (16 stripes) and every counter is atomic,
// so concurrent clients on different documents or collections share no
// lock. The cache is invisible to the CostModel: cached reads still pay
// the full modeled latency and count in Stats, so the benchmark figure
// shapes are unchanged — only the constant CPU overhead above the
// modeled floor shrinks.
type DB struct {
	backend Backend
	cost    CostModel

	perCol sync.Map // collection → *colStats

	docs *docCache
}

// colStats is one collection's operation counters, atomic so counting
// never takes a lock. DB.Stats is their sum.
type colStats struct {
	creates, reads, updates, deletes, parses atomic.Int64
}

func (s *colStats) snapshot() Stats {
	return Stats{
		Creates: s.creates.Load(),
		Reads:   s.reads.Load(),
		Updates: s.updates.Load(),
		Deletes: s.deletes.Load(),
		Parses:  s.parses.Load(),
	}
}

// New returns a database over the given backend.
func New(backend Backend, cost CostModel) *DB {
	return newWithCacheCap(backend, cost, DocCacheCap)
}

// newWithCacheCap is the test seam for exercising eviction without
// building thousands of documents.
func newWithCacheCap(backend Backend, cost CostModel, docCap int) *DB {
	return &DB{backend: backend, cost: cost, docs: newDocCache(docCap)}
}

// NewMemory returns a database over a fresh in-memory backend.
func NewMemory(cost CostModel) *DB { return New(NewMemoryBackend(), cost) }

// Stats returns a snapshot of the operation counters, summed over
// the per-collection blocks.
func (db *DB) Stats() Stats {
	var sum Stats
	db.perCol.Range(func(_, v any) bool {
		c := v.(*colStats).snapshot()
		sum.Creates += c.Creates
		sum.Reads += c.Reads
		sum.Updates += c.Updates
		sum.Deletes += c.Deletes
		sum.Parses += c.Parses
		return true
	})
	return sum
}

// CollectionStats returns the operation counters for one collection —
// how tests isolate, say, counter-document reads from subscription
// scans sharing the same database.
func (db *DB) CollectionStats(collection string) Stats {
	if v, ok := db.perCol.Load(collection); ok {
		return v.(*colStats).snapshot()
	}
	return Stats{}
}

// col returns the collection's atomic counter block, creating it on
// first touch. Steady state is one lock-free map load.
func (db *DB) col(collection string) *colStats {
	if v, ok := db.perCol.Load(collection); ok {
		return v.(*colStats)
	}
	v, _ := db.perCol.LoadOrStore(collection, &colStats{})
	return v.(*colStats)
}

func pause(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// invalidate drops the single document's cached parse. Writes call it
// after the backend accepted the mutation.
func (db *DB) invalidate(collection, id string) {
	db.docs.bump(docKey{collection, id})
}

// loadDoc returns the parsed document, from the cache when its
// generation is current, parsing (and counting the parse) otherwise.
// The returned tree is the shared master copy: callers must clone
// before handing it out.
func (db *DB) loadDoc(collection, id string) (*xmlutil.Element, bool, error) {
	key := docKey{collection, id}
	doc, gen, epoch, hit := db.docs.lookup(key)
	if hit {
		return doc, true, nil
	}

	raw, ok, err := db.backend.Get(collection, id)
	if err != nil || !ok {
		return nil, ok, err
	}
	doc, err = xmlutil.Parse(raw)
	if err != nil {
		return nil, true, fmt.Errorf("xmldb: corrupt document %s/%s: %w", collection, id, err)
	}
	parsesTotal.Inc()
	db.col(collection).parses.Add(1)

	db.docs.fill(key, gen, epoch, doc)
	return doc, true, nil
}

// Create stores a new document; it fails with ErrExists when the id is
// already present.
func (db *DB) Create(collection, id string, doc *xmlutil.Element) error {
	return db.CreateContext(context.Background(), collection, id, doc)
}

// CreateContext is Create traced under ctx's request span.
func (db *DB) CreateContext(ctx context.Context, collection, id string, doc *xmlutil.Element) (err error) {
	defer begin(ctx, "xmldb.create", collection).end(&err)
	pause(db.cost.Create)
	opCreates.Inc()
	db.col(collection).creates.Add(1)
	stored, err := db.backend.CondPut(collection, id, doc.Marshal(), false)
	if err != nil {
		return err
	}
	if !stored {
		return fmt.Errorf("%w: %s/%s", ErrExists, collection, id)
	}
	db.invalidate(collection, id)
	return nil
}

// Get loads and parses a document; ErrNotFound when absent.
func (db *DB) Get(collection, id string) (*xmlutil.Element, error) {
	return db.GetContext(context.Background(), collection, id)
}

// GetContext is Get traced under ctx's request span.
func (db *DB) GetContext(ctx context.Context, collection, id string) (_ *xmlutil.Element, err error) {
	defer begin(ctx, "xmldb.get", collection).end(&err)
	pause(db.cost.Read)
	opReads.Inc()
	db.col(collection).reads.Add(1)
	doc, ok, err := db.loadDoc(collection, id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	return doc.Clone(), nil
}

// Update replaces an existing document; ErrNotFound when absent.
func (db *DB) Update(collection, id string, doc *xmlutil.Element) error {
	return db.UpdateContext(context.Background(), collection, id, doc)
}

// UpdateContext is Update traced under ctx's request span.
func (db *DB) UpdateContext(ctx context.Context, collection, id string, doc *xmlutil.Element) (err error) {
	defer begin(ctx, "xmldb.update", collection).end(&err)
	pause(db.cost.Update)
	opUpdates.Inc()
	db.col(collection).updates.Add(1)
	stored, err := db.backend.CondPut(collection, id, doc.Marshal(), true)
	if err != nil {
		return err
	}
	if !stored {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	db.invalidate(collection, id)
	return nil
}

// Put stores the document whether or not it exists — the upsert that
// out-of-band resource creation needs (paper §3.2: a WS-Transfer Get
// may be legitimate "although the corresponding entry in Xindice is
// not added by calling Create()").
func (db *DB) Put(collection, id string, doc *xmlutil.Element) error {
	return db.PutContext(context.Background(), collection, id, doc)
}

// PutContext is Put traced under ctx's request span.
func (db *DB) PutContext(ctx context.Context, collection, id string, doc *xmlutil.Element) (err error) {
	defer begin(ctx, "xmldb.put", collection).end(&err)
	pause(db.cost.Update)
	opUpdates.Inc()
	db.col(collection).updates.Add(1)
	if err := db.backend.Put(collection, id, doc.Marshal()); err != nil {
		return err
	}
	db.invalidate(collection, id)
	return nil
}

// Delete removes a document; ErrNotFound when absent.
func (db *DB) Delete(collection, id string) error {
	return db.DeleteContext(context.Background(), collection, id)
}

// DeleteContext is Delete traced under ctx's request span.
func (db *DB) DeleteContext(ctx context.Context, collection, id string) (err error) {
	defer begin(ctx, "xmldb.delete", collection).end(&err)
	pause(db.cost.Delete)
	opDeletes.Inc()
	db.col(collection).deletes.Add(1)
	removed, err := db.backend.CondDelete(collection, id)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	db.invalidate(collection, id)
	return nil
}

// Exists reports document presence without parsing (counts as a read).
// Backends implementing Haser answer without copying the document
// bytes; others fall back to a full Get.
func (db *DB) Exists(collection, id string) (bool, error) {
	return db.ExistsContext(context.Background(), collection, id)
}

// ExistsContext is Exists traced under ctx's request span.
func (db *DB) ExistsContext(ctx context.Context, collection, id string) (_ bool, err error) {
	defer begin(ctx, "xmldb.exists", collection).end(&err)
	pause(db.cost.Read)
	opReads.Inc()
	db.col(collection).reads.Add(1)
	return backendHas(db.backend, collection, id)
}

// IDs lists document ids in a collection, sorted.
func (db *DB) IDs(collection string) ([]string, error) {
	return db.IDsContext(context.Background(), collection)
}

// IDsContext is IDs traced under ctx's request span.
func (db *DB) IDsContext(ctx context.Context, collection string) (_ []string, err error) {
	defer begin(ctx, "xmldb.ids", collection).end(&err)
	pause(db.cost.Read)
	opReads.Inc()
	db.col(collection).reads.Add(1)
	return db.backend.IDs(collection)
}

// MemoryBackend is a concurrency-safe in-memory byte store.
type MemoryBackend struct {
	mu   sync.RWMutex
	data map[string]map[string][]byte
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{data: map[string]map[string][]byte{}}
}

// Put implements Backend.
func (m *MemoryBackend) Put(collection, id string, doc []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	col := m.data[collection]
	if col == nil {
		col = map[string][]byte{}
		m.data[collection] = col
	}
	cp := make([]byte, len(doc))
	copy(cp, doc)
	col[id] = cp
	return nil
}

// Get implements Backend.
func (m *MemoryBackend) Get(collection, id string) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	doc, ok := m.data[collection][id]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(doc))
	copy(cp, doc)
	return cp, true, nil
}

// Has implements Haser: presence without copying the document bytes.
func (m *MemoryBackend) Has(collection, id string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[collection][id]
	return ok, nil
}

// CondPut implements Backend: one lock acquisition covers the
// existence check and the write.
func (m *MemoryBackend) CondPut(collection, id string, doc []byte, wantExists bool) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	col := m.data[collection]
	if _, ok := col[id]; ok != wantExists {
		return false, nil
	}
	if col == nil {
		col = map[string][]byte{}
		m.data[collection] = col
	}
	cp := make([]byte, len(doc))
	copy(cp, doc)
	col[id] = cp
	return true, nil
}

// CondDelete implements Backend.
func (m *MemoryBackend) CondDelete(collection, id string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[collection][id]; !ok {
		return false, nil
	}
	delete(m.data[collection], id)
	return true, nil
}

// Delete implements Backend.
func (m *MemoryBackend) Delete(collection, id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	col, ok := m.data[collection]
	if !ok {
		return fmt.Errorf("xmldb: delete from missing collection %s", collection)
	}
	if _, ok := col[id]; !ok {
		return fmt.Errorf("xmldb: delete missing %s/%s", collection, id)
	}
	delete(col, id)
	return nil
}

// IDs implements Backend.
func (m *MemoryBackend) IDs(collection string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	col := m.data[collection]
	ids := make([]string, 0, len(col))
	for id := range col {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}
