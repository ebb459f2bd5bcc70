// Package wsrf implements the WS-Resource Framework core: the
// WS-Resource construct ("a composition of a Web service and a
// stateful resource", paper §2.1), persistence of resources as XML
// documents in a backend store, EPR minting, and the WSRF.NET
// programming model's library-level Create().
//
// Mirroring WSRF.NET (paper §3.1):
//
//   - Resources are XML documents persisted to a pluggable backend
//     (here the xmldb Xindice stand-in).
//   - The resource identified by the request EPR's reference property
//     is loaded before the service method runs and saved afterwards.
//   - WSRF does not define resource creation; ResourceHome.Create is
//     the library method "programmers can use to handle details of
//     interaction with the storage backend", which services may expose
//     however they wish.
//   - A write-through resource cache lets repeat operations skip the
//     read-before-write that an uncached implementation pays — the
//     cause of WSRF.NET's faster Set in Figure 2 ("through use of its
//     resource cache [WSRF.NET] is able to avoid this extra database
//     read and thus performs faster for set operations", §4.1.3).
//
// The spec-defined port types live in the subpackages rp
// (WS-ResourceProperties), rl (WS-ResourceLifetime), sg
// (WS-ServiceGroup), and bf (WS-BaseFaults).
package wsrf

import (
	"context"
	"encoding/xml"
	"fmt"
	"sort"
	"sync"
	"time"

	"altstacks/internal/soap"
	"altstacks/internal/uuid"
	"altstacks/internal/wsa"
	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

// OASIS WSRF namespaces.
const (
	NSRP = "http://docs.oasis-open.org/wsrf/rp-2"
	NSRL = "http://docs.oasis-open.org/wsrf/rl-2"
	NSSG = "http://docs.oasis-open.org/wsrf/sg-2"
	NSBF = "http://docs.oasis-open.org/wsrf/bf-2"
)

// Resource is one WS-Resource: identity, state document, and lifetime.
type Resource struct {
	// ID is the opaque resource identifier carried in the EPR.
	ID string
	// State is the persisted XML document — the [Resource]-annotated
	// members of the WSRF.NET programming model.
	State *xmlutil.Element
	// Termination is the scheduled termination time; zero means the
	// resource lives until explicitly destroyed.
	Termination time.Time

	// ctx is the request context of the operation this resource copy was
	// loaded for (set by MutateContext/ViewContext). It is deliberately
	// unexported and never cached: cached copies outlive requests, so a
	// retained context would both leak and cancel spuriously.
	ctx context.Context
}

// Context returns the request context this resource copy was loaded
// under, or context.Background() for copies obtained outside a
// request. Property Set implementations use it to thread the request
// (and its trace span) into the notifications they trigger.
func (r *Resource) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// terminationAttr stores the lifetime inside the persisted document.
const terminationAttr = "scheduledTermination"

// PropertyDef declares one resource property: a named, possibly
// computed projection of resource state (the [ResourceProperty]
// attribute in WSRF.NET — "the ResourceProperty value can be computed
// dynamically, using a portion of the WS-Resource state").
type PropertyDef struct {
	Name xml.Name
	// Get produces the property's current element values.
	Get func(r *Resource) []*xmlutil.Element
	// Set updates resource state from new values; nil marks the
	// property read-only.
	Set func(r *Resource, values []*xmlutil.Element) error
}

// StateChildProperty exposes children of the state document with the
// given local name directly as a read-write property — the common case
// where the property is the state (paper §4.1.1: the counter's
// resource "is simply a single variable").
func StateChildProperty(space, local string) PropertyDef {
	name := xml.Name{Space: space, Local: local}
	return PropertyDef{
		Name: name,
		Get: func(r *Resource) []*xmlutil.Element {
			var out []*xmlutil.Element
			for _, c := range r.State.ChildrenNamed(space, local) {
				out = append(out, c.Clone())
			}
			return out
		},
		Set: func(r *Resource, values []*xmlutil.Element) error {
			kept := r.State.Children[:0]
			for _, c := range r.State.Children {
				if !(c.Name.Space == space && c.Name.Local == local) {
					kept = append(kept, c)
				}
			}
			r.State.Children = kept
			for _, v := range values {
				r.State.Add(v.Clone())
			}
			return nil
		},
	}
}

// Home manages all WS-Resources of one type. "WSRF encourages each
// service to operate on a single type of resource" (paper §2.3); a
// Home is that one-type-per-service binding.
type Home struct {
	// DB is the storage backend.
	DB *xmldb.DB
	// Collection names the backend collection holding this type.
	Collection string
	// RefSpace/RefLocal name the EPR reference property carrying the
	// resource id (e.g. {urn:counter, CounterID}).
	RefSpace, RefLocal string
	// Endpoint supplies the service's transport address.
	Endpoint func() string
	// CacheEnabled turns on the WSRF.NET write-through resource cache.
	CacheEnabled bool
	// OnDestroy, when set, runs before a resource is removed — the
	// hook ExecService uses to kill a running job on Destroy (paper
	// §4.2.1) and DataService uses to remove directories. Its error
	// vetoes the destruction.
	OnDestroy func(r *Resource) error
	// AfterDestroy, when set, runs after a resource has been removed —
	// the notification broker uses it to recompute demand-based
	// publishing when a subscription is deleted.
	AfterDestroy func(id string)

	mu    sync.Mutex
	cache map[string]*Resource
	locks map[string]*idLock
	props []PropertyDef
}

// idLock is one resource's exclusive lock. refs counts its holder and
// waiters under Home.mu; the last unlock removes it from Home.locks,
// so the map holds only ids in use and never keeps a request-derived
// id string alive after its operation ends.
type idLock struct {
	sync.Mutex
	refs int
}

// DefineProperty registers a resource property. Definitions are
// wiring-time; DefineProperty panics on duplicate names.
func (h *Home) DefineProperty(def PropertyDef) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.props {
		if d.Name == def.Name {
			panic(fmt.Sprintf("wsrf: duplicate property %v", def.Name))
		}
	}
	h.props = append(h.props, def)
}

// Properties returns the registered definitions in definition order.
func (h *Home) Properties() []PropertyDef {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PropertyDef(nil), h.props...)
}

// Property looks up a definition by local name (and, when space is
// non-empty, namespace).
func (h *Home) Property(space, local string) (PropertyDef, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.props {
		if d.Name.Local == local && (space == "" || d.Name.Space == space) {
			return d, true
		}
	}
	return PropertyDef{}, false
}

// Create persists a new resource initialized with the given state and
// returns its EPR. This is the WSRF.NET ServiceBase.Create() library
// call: WSRF itself defines no Create operation (paper §2.3 — "the
// lack of Create in WSRF is problematic"), so every WSRF service
// exposes creation through an application-specific operation that
// calls this internally.
func (h *Home) Create(state *xmlutil.Element) (wsa.EPR, error) {
	return h.CreateWithID(uuid.NewString(), state)
}

// CreateContext is Create under a request context, so the storage
// write appears in the request's trace.
func (h *Home) CreateContext(ctx context.Context, state *xmlutil.Element) (wsa.EPR, error) {
	return h.CreateWithIDContext(ctx, uuid.NewString(), state)
}

// CreateWithID is Create with a caller-chosen identifier (used by
// services whose resource names are meaningful, like account DNs).
func (h *Home) CreateWithID(id string, state *xmlutil.Element) (wsa.EPR, error) {
	return h.CreateWithIDContext(context.Background(), id, state)
}

// CreateWithIDContext is CreateWithID under a request context.
func (h *Home) CreateWithIDContext(ctx context.Context, id string, state *xmlutil.Element) (wsa.EPR, error) {
	r := &Resource{ID: id, State: state.Clone()}
	if err := h.DB.CreateContext(ctx, h.Collection, id, encodeResource(r)); err != nil {
		return wsa.EPR{}, err
	}
	h.cachePut(r)
	return h.EPRFor(id), nil
}

// EPRFor builds the EPR addressing an existing resource id.
func (h *Home) EPRFor(id string) wsa.EPR {
	return wsa.NewEPR(h.Endpoint()).WithProperty(h.RefSpace, h.RefLocal, id)
}

// ResourceID extracts the resource id from a request envelope's
// reference-property header.
func (h *Home) ResourceID(env *soap.Envelope) (string, error) {
	id, ok := wsa.ResourceID(env, h.RefSpace, h.RefLocal)
	if !ok || id == "" {
		return "", soap.Faultf(soap.FaultClient,
			"request does not identify a %s resource (missing %s reference property)",
			h.Collection, h.RefLocal)
	}
	return id, nil
}

// Load fetches the resource from the store (refreshing the cache).
// Read operations always hit the database — the WSRF.NET cache exists
// to elide the read *before a write* in the wrapper's load-modify-save
// cycle (paper §4.1.3: it "is able to avoid this extra database read
// and thus performs faster for set operations"), not to serve reads.
// The returned Resource is private to the caller (deep-copied),
// matching the wrapper's deserialize-into-members step.
func (h *Home) Load(id string) (*Resource, error) {
	return h.LoadContext(context.Background(), id)
}

// LoadContext is Load under a request context.
func (h *Home) LoadContext(ctx context.Context, id string) (*Resource, error) {
	doc, err := h.DB.GetContext(ctx, h.Collection, id)
	if err != nil {
		return nil, err
	}
	r := decodeResource(id, doc)
	h.cachePut(r)
	return cloneResource(r), nil
}

// loadForUpdate is the write-path load: cache-first when enabled, so a
// mutation skips the read-before-write.
func (h *Home) loadForUpdate(ctx context.Context, id string) (*Resource, error) {
	if h.CacheEnabled {
		h.mu.Lock()
		if r, ok := h.cache[id]; ok {
			cp := cloneResource(r)
			h.mu.Unlock()
			return cp, nil
		}
		h.mu.Unlock()
	}
	return h.LoadContext(ctx, id)
}

// Save writes the resource back — the serialize-members step of the
// WSRF.NET wrapper. The cache is write-through: the store is always
// updated, and the cache copy refreshed.
func (h *Home) Save(r *Resource) error {
	return h.saveContext(context.Background(), r)
}

func (h *Home) saveContext(ctx context.Context, r *Resource) error {
	if err := h.DB.UpdateContext(ctx, h.Collection, r.ID, encodeResource(r)); err != nil {
		return err
	}
	h.cachePut(r)
	return nil
}

// Destroy removes the resource immediately (WS-ResourceLifetime's
// immediate destruction). The OnDestroy hook runs first; its failure
// aborts destruction.
func (h *Home) Destroy(id string) error {
	return h.DestroyContext(context.Background(), id)
}

// DestroyContext is Destroy under a request context.
func (h *Home) DestroyContext(ctx context.Context, id string) error {
	if h.OnDestroy != nil {
		r, err := h.LoadContext(ctx, id)
		if err != nil {
			return err
		}
		if err := h.OnDestroy(r); err != nil {
			return err
		}
	}
	if err := h.DB.DeleteContext(ctx, h.Collection, id); err != nil {
		return err
	}
	h.mu.Lock()
	delete(h.cache, id)
	h.mu.Unlock()
	if h.AfterDestroy != nil {
		h.AfterDestroy(id)
	}
	return nil
}

// Exists reports whether the resource id is live.
func (h *Home) Exists(id string) (bool, error) {
	if h.CacheEnabled {
		h.mu.Lock()
		_, ok := h.cache[id]
		h.mu.Unlock()
		if ok {
			return true, nil
		}
	}
	return h.DB.Exists(h.Collection, id)
}

// IDs lists live resource ids.
func (h *Home) IDs() ([]string, error) { return h.DB.IDs(h.Collection) }

// Expired returns ids whose scheduled termination has passed —
// consumed by the lifetime sweeper in package rl.
func (h *Home) Expired(now time.Time) ([]string, error) {
	ids, err := h.DB.IDs(h.Collection)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, id := range ids {
		r, err := h.Load(id)
		if err != nil {
			continue // destroyed concurrently
		}
		if !r.Termination.IsZero() && r.Termination.Before(now) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Mutate runs fn under the resource's exclusive lock with
// load-modify-save semantics — the wrapper-service execution model
// from Figure 1 ("the state associated with the client is retrieved
// from storage for the invocation and placed back into storage once
// the request is satisfied").
func (h *Home) Mutate(id string, fn func(r *Resource) error) error {
	return h.MutateContext(context.Background(), id, fn)
}

// MutateContext is Mutate under a request context: storage operations
// join the request trace, and the loaded resource copy carries ctx so
// fn (property Set implementations in particular) can thread it into
// the notifications it triggers via r.Context().
func (h *Home) MutateContext(ctx context.Context, id string, fn func(r *Resource) error) error {
	defer h.unlock(id, h.lock(id))
	r, err := h.loadForUpdate(ctx, id)
	if err != nil {
		return err
	}
	r.ctx = ctx
	if err := fn(r); err != nil {
		return err
	}
	return h.saveContext(ctx, r)
}

// View runs fn with a read-only snapshot under the resource lock.
func (h *Home) View(id string, fn func(r *Resource) error) error {
	return h.ViewContext(context.Background(), id, fn)
}

// ViewContext is View under a request context.
func (h *Home) ViewContext(ctx context.Context, id string, fn func(r *Resource) error) error {
	defer h.unlock(id, h.lock(id))
	r, err := h.LoadContext(ctx, id)
	if err != nil {
		return err
	}
	r.ctx = ctx
	return fn(r)
}

// lock acquires id's exclusive lock, creating it on first use.
func (h *Home) lock(id string) *idLock {
	h.mu.Lock()
	l := h.locks[id]
	if l == nil {
		if h.locks == nil {
			h.locks = map[string]*idLock{}
		}
		l = &idLock{}
		h.locks[id] = l
	}
	l.refs++
	h.mu.Unlock()
	l.Lock()
	return l
}

// unlock releases id's lock and forgets it once no one holds or awaits
// it.
func (h *Home) unlock(id string, l *idLock) {
	l.Unlock()
	h.mu.Lock()
	if l.refs--; l.refs == 0 {
		delete(h.locks, id)
	}
	h.mu.Unlock()
}

func (h *Home) cachePut(r *Resource) {
	if !h.CacheEnabled {
		return
	}
	h.mu.Lock()
	if h.cache == nil {
		h.cache = map[string]*Resource{}
	}
	h.cache[r.ID] = cloneResource(r)
	h.mu.Unlock()
}

// PropertyDocument assembles the full resource property document: all
// registered properties evaluated against the resource, wrapped in a
// wsrp:Properties root — the queryable "view or projection of the
// state of the WS-Resource" (paper §2.1).
func (h *Home) PropertyDocument(r *Resource) *xmlutil.Element {
	root := xmlutil.New(NSRP, "Properties")
	for _, def := range h.Properties() {
		for _, el := range def.Get(r) {
			root.Add(el)
		}
	}
	return root
}

func cloneResource(r *Resource) *Resource {
	return &Resource{ID: r.ID, State: r.State.Clone(), Termination: r.Termination}
}

func encodeResource(r *Resource) *xmlutil.Element {
	doc := r.State.Clone()
	if !r.Termination.IsZero() {
		doc.SetAttr(NSRL, terminationAttr, r.Termination.UTC().Format(time.RFC3339Nano))
	}
	return doc
}

func decodeResource(id string, doc *xmlutil.Element) *Resource {
	r := &Resource{ID: id, State: doc}
	if v, ok := doc.Attr(NSRL, terminationAttr); ok {
		if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
			r.Termination = t
		}
		// Strip the bookkeeping attribute from the in-memory state.
		kept := doc.Attrs[:0]
		for _, a := range doc.Attrs {
			if !(a.Name.Space == NSRL && a.Name.Local == terminationAttr) {
				kept = append(kept, a)
			}
		}
		doc.Attrs = kept
	}
	return r
}
