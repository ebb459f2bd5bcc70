// Package retry implements the bounded-retry policy shared by the two
// stacks' notification delivery paths (wsn.Producer and wse.Source):
// exponential backoff with full jitter, an attempt cap, and context
// cancellation. Grid consumers of the
// paper's era are transient by construction — one-shot HTTP servers
// embedded in clients, raw-TCP SoapReceivers that vanish with the
// process — so a single-attempt delivery turns every network hiccup
// into a lost event. Retry gives deliveries at-least-once semantics up
// to the cap; the eviction layer above it decides when a subscriber is
// dead rather than slow.
package retry

import (
	"context"
	"math/rand/v2"
	"time"

	"altstacks/internal/obs"
)

// retriesTotal counts backoff sleeps across every retried operation —
// the process-wide "how often are we retrying anything" signal.
var retriesTotal = obs.NewCounter("ogsa_retry_backoffs_total", "",
	"retry backoff sleeps across all retried operations")

// Policy parameterizes one retried operation. The zero value performs
// a single attempt with no backoff, so wiring a Policy through a
// struct never changes behavior until knobs are set.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; each
	// further retry doubles it. 0 selects 10ms when retries are enabled.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled delay; 0 means uncapped.
	MaxBackoff time.Duration
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// maxBackoffCeiling bounds the doubling loop when MaxBackoff is 0
// (uncapped): one hour is beyond any plausible delivery retry horizon,
// and stopping the doubling there keeps base<<n from overflowing
// time.Duration's int64 at high attempt indices — an overflow would
// turn the delay negative and panic the jitter draw below.
const maxBackoffCeiling = time.Hour

// Backoff returns the randomized delay to sleep after failed attempt n
// (0-based): base<<n capped at MaxBackoff, with full jitter drawn from
// [d/2, d]. Jitter decorrelates the retry storms of a fan-out pool all
// failing against the same dead subscriber at once.
func (p Policy) Backoff(n int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = maxBackoffCeiling
	}
	d := base
	for i := 0; i < n; i++ {
		if d >= cap/2 {
			// Doubling again would exceed (or overflow past) the cap.
			d = cap
			break
		}
		d *= 2
	}
	if d > cap {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// Do runs op until it succeeds, the attempt cap is reached, or ctx is
// cancelled, sleeping a jittered backoff between attempts. It returns
// the number of attempts made and the final error (nil on success).
// Each attempt receives ctx; bounding one attempt is the operation's
// own job (a delivery carries fanout.Knobs.DeliveryTimeout), and so is
// telling its spans about a failed attempt.
func Do(ctx context.Context, p Policy, op func(context.Context) error) (attempts int, err error) {
	max := p.attempts()
	for n := 0; ; n++ {
		attempts = n + 1
		err = op(ctx)
		if err == nil || attempts >= max {
			return attempts, err
		}
		if ctx.Err() != nil {
			return attempts, err
		}
		retriesTotal.Inc()
		t := time.NewTimer(p.Backoff(n))
		select {
		case <-ctx.Done():
			t.Stop()
			return attempts, err
		case <-t.C:
		}
	}
}
