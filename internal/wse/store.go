package wse

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"altstacks/internal/xmlutil"
)

// Store persists the subscription list. Faithful to Plumbwork Orange,
// the backing format is a single flat XML file rewritten on every
// mutation (paper §3.2) — deliberately simpler (and cruder) than the
// WSRF stack's per-subscription WS-Resources. An empty path keeps the
// list in memory only.
//
// Durability: flushLocked writes path.tmp and renames it over path,
// with no fsync of the file or its directory. A mutation that has
// returned survives the process being killed: the rename is atomic, so
// NewStore reads the old list or the new one, never a torn mix. It
// does not survive an OS crash or power loss. A kill mid-write leaves
// a stray path.tmp, which NewStore ignores and the next flush
// replaces.
type Store struct {
	path string

	mu   sync.Mutex
	subs map[string]*Subscription
}

// NewStore opens (or creates) a store. path "" is memory-only.
func NewStore(path string) (*Store, error) {
	s := &Store{path: path, subs: map[string]*Subscription{}}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wse: open store: %w", err)
	}
	root, err := xmlutil.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("wse: corrupt store %s: %w", path, err)
	}
	for _, el := range root.ChildrenNamed(NS, "Subscription") {
		sub, err := decodeSubscription(el)
		if err != nil {
			return nil, err
		}
		s.subs[sub.ID] = sub
	}
	return s, nil
}

// Put inserts or replaces a subscription.
func (s *Store) Put(sub *Subscription) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[sub.ID] = sub
	return s.flushLocked()
}

// Get returns the subscription or nil.
func (s *Store) Get(id string) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs[id]
}

// SetHealth writes a subscription's delivery-health record through to
// the store (and its flat file). Unknown ids are a no-op: the
// subscription may have been cancelled while its last delivery was in
// flight.
func (s *Store) SetHealth(id string, h SubscriptionHealth) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[id]
	if !ok {
		return nil
	}
	sub.Health = h
	return s.flushLocked()
}

// GetHealth returns the persisted health record for a subscription.
func (s *Store) GetHealth(id string) (SubscriptionHealth, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[id]
	if !ok {
		return SubscriptionHealth{}, false
	}
	return sub.Health, true
}

// Delete removes a subscription; it reports whether it existed.
func (s *Store) Delete(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[id]; !ok {
		return false, nil
	}
	delete(s.subs, id)
	return true, s.flushLocked()
}

// All returns the subscriptions sorted by id.
func (s *Store) All() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Expired returns subscriptions lapsed at the given time.
func (s *Store) Expired(now time.Time) []*Subscription {
	var out []*Subscription
	for _, sub := range s.All() {
		if sub.Expired(now) {
			out = append(out, sub)
		}
	}
	return out
}

func (s *Store) flushLocked() error {
	if s.path == "" {
		return nil
	}
	root := xmlutil.New(NS, "Subscriptions")
	ids := make([]string, 0, len(s.subs))
	for id := range s.subs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		root.Add(s.subs[id].encode())
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, root.Marshal(), 0o644); err != nil {
		return fmt.Errorf("wse: flush store: %w", err)
	}
	return os.Rename(tmp, s.path)
}
