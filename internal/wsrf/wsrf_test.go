package wsrf

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"altstacks/internal/xmldb"
	"altstacks/internal/xmlutil"
)

func newHome(cache bool) *Home {
	return &Home{
		DB:           xmldb.NewMemory(xmldb.CostModel{}),
		Collection:   "counters",
		RefSpace:     "urn:counter",
		RefLocal:     "CounterID",
		Endpoint:     func() string { return "http://h/counter" },
		CacheEnabled: cache,
	}
}

func counterState(v int) *xmlutil.Element {
	return xmlutil.New("urn:counter", "CounterState").Add(
		xmlutil.NewText("urn:counter", "cv", fmt.Sprint(v)))
}

func TestCreateLoadSaveDestroy(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			h := newHome(cache)
			epr, err := h.Create(counterState(0))
			if err != nil {
				t.Fatal(err)
			}
			id, ok := epr.Property("urn:counter", "CounterID")
			if !ok || id == "" {
				t.Fatalf("EPR lacks resource id: %+v", epr)
			}
			r, err := h.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			if r.State.ChildText("urn:counter", "cv") != "0" {
				t.Fatalf("state = %s", r.State)
			}
			r.State.Child("urn:counter", "cv").Text = "7"
			if err := h.Save(r); err != nil {
				t.Fatal(err)
			}
			r2, _ := h.Load(id)
			if r2.State.ChildText("urn:counter", "cv") != "7" {
				t.Fatal("save not visible")
			}
			if err := h.Destroy(id); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Load(id); err == nil {
				t.Fatal("load after destroy succeeded")
			}
			if ok, _ := h.Exists(id); ok {
				t.Fatal("destroyed resource still exists")
			}
		})
	}
}

func TestCacheEliminatesReadBeforeWrite(t *testing.T) {
	// The WSRF.NET effect from paper §4.1.3: with the write-through
	// cache, a Set does not pay a database read; without it, it does.
	run := func(cache bool) xmldb.Stats {
		h := newHome(cache)
		epr, err := h.Create(counterState(0))
		if err != nil {
			t.Fatal(err)
		}
		id, _ := epr.Property("urn:counter", "CounterID")
		for i := 0; i < 5; i++ {
			err := h.Mutate(id, func(r *Resource) error {
				r.State.Child("urn:counter", "cv").Text = fmt.Sprint(i)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return h.DB.Stats()
	}
	with := run(true)
	without := run(false)
	if with.Reads != 0 {
		t.Fatalf("cached home performed %d db reads on mutate, want 0", with.Reads)
	}
	if without.Reads < 5 {
		t.Fatalf("uncached home performed %d db reads, want ≥5", without.Reads)
	}
	if with.Updates != without.Updates {
		t.Fatalf("write-through must not change write counts: %d vs %d", with.Updates, without.Updates)
	}
}

func TestLoadReturnsPrivateCopy(t *testing.T) {
	h := newHome(true)
	epr, _ := h.Create(counterState(3))
	id, _ := epr.Property("urn:counter", "CounterID")
	r1, _ := h.Load(id)
	r1.State.Child("urn:counter", "cv").Text = "999"
	r2, _ := h.Load(id)
	if r2.State.ChildText("urn:counter", "cv") != "3" {
		t.Fatal("Load returned aliased state")
	}
}

func TestTerminationPersists(t *testing.T) {
	h := newHome(false)
	epr, _ := h.Create(counterState(0))
	id, _ := epr.Property("urn:counter", "CounterID")
	when := time.Now().Add(time.Hour).UTC().Truncate(time.Millisecond)
	if err := h.Mutate(id, func(r *Resource) error { r.Termination = when; return nil }); err != nil {
		t.Fatal(err)
	}
	r, err := h.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Termination.Equal(when) {
		t.Fatalf("termination = %v, want %v", r.Termination, when)
	}
	// The bookkeeping attribute must not leak into the state doc.
	if _, ok := r.State.Attr(NSRL, "scheduledTermination"); ok {
		t.Fatal("termination attribute leaked into state")
	}
}

func TestExpired(t *testing.T) {
	h := newHome(false)
	now := time.Now()
	mk := func(offset time.Duration) string {
		epr, _ := h.Create(counterState(0))
		id, _ := epr.Property("urn:counter", "CounterID")
		if offset != 0 {
			_ = h.Mutate(id, func(r *Resource) error { r.Termination = now.Add(offset); return nil })
		}
		return id
	}
	expired := mk(-time.Minute)
	_ = mk(time.Hour) // future
	_ = mk(0)         // infinite
	got, err := h.Expired(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != expired {
		t.Fatalf("expired = %v, want [%s]", got, expired)
	}
}

func TestCreateWithIDDuplicate(t *testing.T) {
	h := newHome(false)
	if _, err := h.CreateWithID("dup", counterState(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateWithID("dup", counterState(1)); !errors.Is(err, xmldb.ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestMutateAtomicUnderConcurrency(t *testing.T) {
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			h := newHome(cache)
			epr, _ := h.Create(counterState(0))
			id, _ := epr.Property("urn:counter", "CounterID")
			var wg sync.WaitGroup
			const workers, perWorker = 8, 25
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						err := h.Mutate(id, func(r *Resource) error {
							cv := r.State.Child("urn:counter", "cv")
							var v int
							fmt.Sscanf(cv.TrimText(), "%d", &v)
							cv.Text = fmt.Sprint(v + 1)
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			r, _ := h.Load(id)
			if got := r.State.ChildText("urn:counter", "cv"); got != fmt.Sprint(workers*perWorker) {
				t.Fatalf("counter = %s, want %d (lost updates)", got, workers*perWorker)
			}
		})
	}
}

func TestPropertyRegistryAndDocument(t *testing.T) {
	h := newHome(false)
	h.DefineProperty(StateChildProperty("urn:counter", "cv"))
	h.DefineProperty(PropertyDef{
		Name: xml.Name{Space: "urn:counter", Local: "DoubleValue"},
		Get: func(r *Resource) []*xmlutil.Element {
			var v int
			fmt.Sscanf(r.State.ChildText("urn:counter", "cv"), "%d", &v)
			return []*xmlutil.Element{xmlutil.NewText("urn:counter", "DoubleValue", fmt.Sprint(v*2))}
		},
	})
	epr, _ := h.Create(counterState(21))
	id, _ := epr.Property("urn:counter", "CounterID")
	r, _ := h.Load(id)
	doc := h.PropertyDocument(r)
	if doc.ChildText("urn:counter", "cv") != "21" {
		t.Fatalf("cv property = %q", doc.ChildText("urn:counter", "cv"))
	}
	if doc.ChildText("urn:counter", "DoubleValue") != "42" {
		t.Fatalf("computed property = %q (doc %s)", doc.ChildText("urn:counter", "DoubleValue"), doc)
	}
	if _, ok := h.Property("", "cv"); !ok {
		t.Fatal("property lookup by local name failed")
	}
	if _, ok := h.Property("urn:wrong", "cv"); ok {
		t.Fatal("property lookup matched wrong namespace")
	}
}

func TestDefinePropertyDuplicatePanics(t *testing.T) {
	h := newHome(false)
	h.DefineProperty(StateChildProperty("u", "x"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate DefineProperty did not panic")
		}
	}()
	h.DefineProperty(StateChildProperty("u", "x"))
}

func TestStateChildPropertySetReplacesAll(t *testing.T) {
	def := StateChildProperty("u", "x")
	r := &Resource{ID: "1", State: xmlutil.New("u", "S").Add(
		xmlutil.NewText("u", "x", "a"),
		xmlutil.NewText("u", "x", "b"),
		xmlutil.NewText("u", "other", "keep"),
	)}
	if got := def.Get(r); len(got) != 2 {
		t.Fatalf("get = %d values", len(got))
	}
	if err := def.Set(r, []*xmlutil.Element{xmlutil.NewText("u", "x", "c")}); err != nil {
		t.Fatal(err)
	}
	if got := def.Get(r); len(got) != 1 || got[0].TrimText() != "c" {
		t.Fatalf("after set: %v", got)
	}
	if r.State.ChildText("u", "other") != "keep" {
		t.Fatal("unrelated children disturbed")
	}
}

func TestOnDestroyHookRunsAndCanVeto(t *testing.T) {
	h := newHome(false)
	killed := ""
	h.OnDestroy = func(r *Resource) error {
		if r.State.ChildText("urn:counter", "cv") == "13" {
			return fmt.Errorf("resource is cursed")
		}
		killed = r.ID
		return nil
	}
	epr, _ := h.Create(counterState(1))
	id, _ := epr.Property("urn:counter", "CounterID")
	if err := h.Destroy(id); err != nil {
		t.Fatal(err)
	}
	if killed != id {
		t.Fatal("OnDestroy hook did not run")
	}
	epr13, _ := h.Create(counterState(13))
	id13, _ := epr13.Property("urn:counter", "CounterID")
	if err := h.Destroy(id13); err == nil {
		t.Fatal("veto ignored")
	}
	if ok, _ := h.Exists(id13); !ok {
		t.Fatal("vetoed destroy still removed the resource")
	}
}

func TestConcurrentDestroyAndMutate(t *testing.T) {
	// A destroy racing in-flight mutations must leave the system in one
	// of two consistent states: resource gone, or mutation applied.
	// Either way nothing panics, deadlocks, or resurrects the resource
	// after a successful destroy has been observed by the caller.
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			h := newHome(cache)
			epr, err := h.Create(counterState(0))
			if err != nil {
				t.Fatal(err)
			}
			id, _ := epr.Property("urn:counter", "CounterID")
			var wg sync.WaitGroup
			destroyed := make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					err := h.Mutate(id, func(r *Resource) error {
						r.State.Child("urn:counter", "cv").Text = fmt.Sprint(i)
						return nil
					})
					if err != nil {
						return // destroyed under us: acceptable
					}
				}
			}()
			go func() {
				defer wg.Done()
				time.Sleep(time.Millisecond)
				if err := h.Destroy(id); err == nil {
					close(destroyed)
				}
			}()
			wg.Wait()
			select {
			case <-destroyed:
				// After an observed destroy, the resource must stay gone
				// (the cache must not resurrect it on a read).
				if ok, _ := h.Exists(id); ok {
					t.Fatal("resource visible after observed destroy")
				}
				if _, err := h.Load(id); err == nil {
					t.Fatal("load succeeded after observed destroy")
				}
			default:
				// Destroy lost the race entirely; the resource survives.
				if ok, _ := h.Exists(id); !ok {
					t.Fatal("resource vanished without a successful destroy")
				}
			}
		})
	}
}

func TestViewDoesNotBlockOtherResources(t *testing.T) {
	// Per-resource locks must be independent: holding one resource's
	// lock cannot serialize access to another.
	h := newHome(false)
	a, _ := h.Create(counterState(0))
	b, _ := h.Create(counterState(0))
	aid, _ := a.Property("urn:counter", "CounterID")
	bid, _ := b.Property("urn:counter", "CounterID")
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = h.View(aid, func(*Resource) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		done <- h.Mutate(bid, func(r *Resource) error { return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("independent resource blocked behind another's lock")
	}
	close(release)
}

// TestResourceLocksReleased: a per-resource lock lives only while an
// operation holds or awaits it. Create/View/Mutate/Destroy cycles, a
// View of the destroyed id, and contended Mutates of one resource
// leave the lock map empty, so it never pins the request strings its
// ids alias.
func TestResourceLocksReleased(t *testing.T) {
	h := newHome(true)
	const cycles = 100
	for i := 0; i < cycles; i++ {
		epr, err := h.Create(counterState(i))
		if err != nil {
			t.Fatal(err)
		}
		id, _ := epr.Property("urn:counter", "CounterID")
		if err := h.View(id, func(*Resource) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := h.Mutate(id, func(*Resource) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := h.Destroy(id); err != nil {
			t.Fatal(err)
		}
		if err := h.View(id, func(*Resource) error { return nil }); err == nil {
			t.Fatal("View of a destroyed resource succeeded")
		}
	}

	epr, err := h.Create(counterState(0))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := epr.Property("urn:counter", "CounterID")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := h.Mutate(id, func(*Resource) error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.locks); n != 0 {
		t.Fatalf("%d resource locks left after every operation ended, want 0", n)
	}
}
