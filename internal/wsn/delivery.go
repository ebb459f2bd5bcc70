// Delivery robustness for the WS-Notification producer: the stack's
// side of the shared fanout.Engine, which runs retry, the
// per-subscription health ledger, and dead-subscriber eviction.
//
// WS-BaseNotification has no SubscriptionEnd message; a producer that
// gives up on a subscriber terminates the subscription through its
// lifetime path instead (the subscription is itself a WS-Resource, so
// eviction is a Destroy). Health records persist in a sibling
// collection ("<subs>-health") — alongside the subscriptions but
// outside their collection, so failure bookkeeping never invalidates
// the generation-cached subscription scan that keeps steady-state
// Notify off the database.
package wsn

import (
	"errors"

	"altstacks/internal/fanout"
	"altstacks/internal/xmldb"
)

// wsnDelivery registers the ogsa_wsn_* delivery families, aggregated
// across every Producer instance; DeliveryStats stays the per-instance
// view.
var wsnDelivery = fanout.NewCounters("wsn")

// SubscriptionHealth is the per-subscription delivery ledger (see
// fanout.Health).
type SubscriptionHealth = fanout.Health

// DeliveryStats is a snapshot of a producer's delivery counters (see
// fanout.Stats). StateWriteErrors also counts failed current-message
// write-throughs.
type DeliveryStats = fanout.Stats

// DeliveryStats snapshots the producer's delivery counters.
func (p *Producer) DeliveryStats() DeliveryStats { return p.eng.Stats() }

// MessagesSent reports how many notification messages this producer
// has pushed — the instrument behind the demand-publishing
// amplification test.
func (p *Producer) MessagesSent() int64 { return p.eng.MessagesSent() }

// Health returns the current delivery-health record for a
// subscription (zero record for unknown or never-delivered ids).
func (p *Producer) Health(id string) SubscriptionHealth { return p.eng.Health(id) }

// healthCollection is where health records persist, beside the
// subscription collection (like the "-current" message collection).
func (p *Producer) healthCollection() string { return p.Subs.Collection + "-health" }

// dropHealth forgets a subscription's ledger in memory and on disk;
// wired to AfterDestroy so unsubscribes and evictions both clean up.
func (p *Producer) dropHealth(id string) {
	p.eng.DropHealth(id)
	if p.Subs != nil && p.Subs.DB != nil {
		// A subscription whose health was never persisted has nothing to
		// delete; only real backend failures count.
		if err := p.Subs.DB.Delete(p.healthCollection(), id); err != nil && !errors.Is(err, xmldb.ErrNotFound) {
			p.eng.NoteStateWriteError(err)
		}
	}
}

// evict terminates a dead subscription through the lifetime path:
// Destroy on the subscription WS-Resource. Destroy's not-found error
// is the exactly-once gate — whichever caller actually removes the
// resource counts the eviction; racing evictors and explicit
// unsubscribes find it gone and do nothing. Any other Destroy error is
// a failed state write. AfterDestroy invalidates the subscription
// cache, so the next Notify no longer scans the evicted consumer.
func (p *Producer) evict(sub *Subscription, _ error) bool {
	err := p.Subs.Destroy(sub.ID)
	if err != nil && !errors.Is(err, xmldb.ErrNotFound) {
		p.eng.NoteStateWriteError(err)
	}
	return err == nil
}

func (p *Producer) persistHealth(id string, h SubscriptionHealth) error {
	if p.Subs == nil || p.Subs.DB == nil {
		return nil
	}
	return p.Subs.DB.Put(p.healthCollection(), id, fanout.EncodeHealth(h, NSNT, "SubscriptionHealth"))
}

func (p *Producer) loadHealth(id string) SubscriptionHealth {
	if p.Subs == nil || p.Subs.DB == nil {
		return SubscriptionHealth{}
	}
	doc, err := p.Subs.DB.Get(p.healthCollection(), id)
	if err != nil {
		return SubscriptionHealth{}
	}
	return fanout.DecodeHealth(doc, NSNT)
}
