package xmldb

import (
	"sync"

	"altstacks/internal/obs"
	"altstacks/internal/xmlutil"
)

// Cache metric families: hit/miss/evict events of the document cache,
// process-wide across every DB instance (per-instance effectiveness
// stays visible through Stats.Parses).
var (
	docCacheHits   = obs.NewCounter("ogsa_xmldb_cache_events_total", `cache="doc",event="hit"`, "xmldb cache events by cache and kind")
	docCacheMisses = obs.NewCounter("ogsa_xmldb_cache_events_total", `cache="doc",event="miss"`, "xmldb cache events by cache and kind")
	docCacheEvicts = obs.NewCounter("ogsa_xmldb_cache_events_total", `cache="doc",event="evict"`, "xmldb cache events by cache and kind")
)

// cacheStripes is the lock-stripe count of the cache. Power of two
// so stripe selection is a mask, sized so that even a core-count worth
// of concurrent clients rarely collides on one stripe lock.
const cacheStripes = 16

// genPruneFactor bounds the per-document generation map: when a stripe
// tracks this many generations per cached slot, generations of
// non-resident documents are dropped (guarded by the stripe epoch, so
// an in-flight parse can never publish against a recycled counter).
const genPruneFactor = 4

// keyHash is FNV-1a over collection, a NUL separator, and id, so
// stripe selection stays allocation-free.
func keyHash(collection, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(collection); i++ {
		h ^= uint64(collection[i])
		h *= prime64
	}
	h ^= 0 // separator: ("ab","c") and ("a","bc") hash apart
	h *= prime64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

type docKey struct{ collection, id string }

// docEntry is one cached parsed document. ref is the CLOCK
// second-chance bit: set on every hit, cleared (once) by the sweeping
// hand, so a document read since the last sweep survives cap pressure
// and a cold one is evicted.
type docEntry struct {
	gen uint64
	doc *xmlutil.Element // shared master copy; callers receive clones
	ref bool
}

// docStripe is one lock stripe of the parsed-document cache. It owns
// the per-document generation counters for its keys: a write bumps one
// document's generation, invalidating that entry alone — never the
// rest of the collection.
type docStripe struct {
	mu      sync.Mutex
	epoch   uint64 // bumped by generation pruning; guards in-flight fills
	gens    map[docKey]uint64
	entries map[docKey]*docEntry
	ring    []docKey // CLOCK ring over resident keys
	hand    int
}

// docCache is the lock-striped parsed-document cache.
type docCache struct {
	stripeCap int
	stripes   [cacheStripes]docStripe
}

func newDocCache(totalCap int) *docCache {
	c := &docCache{stripeCap: totalCap / cacheStripes}
	if c.stripeCap < 1 {
		c.stripeCap = 1
	}
	for i := range c.stripes {
		c.stripes[i].gens = map[docKey]uint64{}
		c.stripes[i].entries = map[docKey]*docEntry{}
	}
	return c
}

func (c *docCache) stripe(k docKey) *docStripe {
	return &c.stripes[keyHash(k.collection, k.id)&(cacheStripes-1)]
}

// lookup returns the cached master tree when the entry's generation is
// current. The returned gen and epoch identify the version observed;
// fill accepts the parse result only while both still match.
func (c *docCache) lookup(k docKey) (doc *xmlutil.Element, gen, epoch uint64, hit bool) {
	s := c.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	gen, epoch = s.gens[k], s.epoch
	if e, ok := s.entries[k]; ok && e.gen == gen && e.doc != nil {
		e.ref = true
		docCacheHits.Inc()
		return e.doc, gen, epoch, true
	}
	docCacheMisses.Inc()
	return nil, gen, epoch, false
}

// fill caches doc under k unless a write (generation bump) or a prune
// (epoch bump) raced the parse that produced it.
func (c *docCache) fill(k docKey, gen, epoch uint64, doc *xmlutil.Element) {
	s := c.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gens[k] != gen || s.epoch != epoch {
		return
	}
	if e, ok := s.entries[k]; ok {
		e.gen, e.doc, e.ref = gen, doc, true
		return
	}
	if len(s.entries) >= c.stripeCap {
		s.evictOne()
	}
	s.entries[k] = &docEntry{gen: gen, doc: doc, ref: true}
	s.ring = append(s.ring, k)
}

// evictOne advances the CLOCK hand until it finds an entry not
// referenced since its last pass, and evicts it. Called with the
// stripe lock held and at least one resident entry.
func (s *docStripe) evictOne() {
	for {
		k := s.ring[s.hand]
		e := s.entries[k]
		if e.ref {
			e.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, k)
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring = s.ring[:last]
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		docCacheEvicts.Inc()
		return
	}
}

// bump invalidates the one document k: its generation moves on and the
// resident tree (if any) is released. Other documents in the same
// collection keep their cached parses — this is the per-document
// invalidation that whole-collection generation bumping lacked.
func (c *docCache) bump(k docKey) {
	s := c.stripe(k)
	s.mu.Lock()
	s.gens[k]++
	if e, ok := s.entries[k]; ok {
		e.doc = nil // free the stale tree; the slot refills in place
		e.ref = false
	}
	if len(s.gens) >= genPruneFactor*c.stripeCap && len(s.gens) > 64 {
		s.prune()
	}
	s.mu.Unlock()
}

// prune drops generation counters for documents no longer resident.
// The epoch bump makes any parse in flight under an old counter
// unpublishable, so recycling a counter to zero is safe.
func (s *docStripe) prune() {
	s.epoch++
	for k := range s.gens {
		if _, resident := s.entries[k]; !resident {
			delete(s.gens, k)
		}
	}
}
