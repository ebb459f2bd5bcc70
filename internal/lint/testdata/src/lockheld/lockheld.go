// Package lockheld exercises ogsalint/lockheld: no delivery I/O while
// a mutex acquired in the same function is held.
package lockheld

import (
	"context"
	"net"
	"net/http"
	"sync"

	"altstacks/internal/retry"
)

// frameChannel mirrors wse's per-connection TCP channel — the shape
// behind the real finding in tcp.go.
type frameChannel struct {
	mu   sync.Mutex
	conn net.Conn
}

// --- flagged ---

// badFrameWrite models the pre-fix tcp.go shape: a frame write under
// the channel mutex. (The real site keeps the lock on purpose and
// carries a justified lint:ignore; here it is flagged.)
func badFrameWrite(ch *frameChannel, frame []byte) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	_, err := ch.conn.Write(frame) // want `net.Conn.Write while mutex ch.mu is held`
	return err
}

func badHTTPUnderLock(c *http.Client, req *http.Request, mu *sync.Mutex) {
	mu.Lock()
	_, _ = c.Do(req) // want `http.Client.Do while mutex mu is held`
	mu.Unlock()
}

// badRoundTripUnderLock is the container client's direct transport
// call, which SOAP exchanges make in place of http.Client.Do.
func badRoundTripUnderLock(rt http.RoundTripper, req *http.Request, mu *sync.Mutex) {
	mu.Lock()
	_, _ = rt.RoundTrip(req) // want `http.RoundTripper.RoundTrip while mutex mu is held`
	mu.Unlock()
}

func badSendUnderLock(events chan<- string, mu *sync.Mutex) {
	mu.Lock()
	events <- "subscription-end" // want `channel send while mutex mu is held`
	mu.Unlock()
}

func badRetryUnderRLock(ctx context.Context, p retry.Policy, mu *sync.RWMutex) {
	mu.RLock()
	defer mu.RUnlock()
	_, _ = retry.Do(ctx, p, func(context.Context) error { return nil }) // want `retry.Do while mutex mu is held`
}

// --- clean ---

// goodSnapshotShape is the record/snapshot/unlock/persist discipline
// from the wsn health ledger: the lock protects the map touch only,
// and the RPC happens after the release.
func goodSnapshotShape(c *http.Client, req *http.Request, mu *sync.Mutex, hits map[string]int) {
	mu.Lock()
	hits["sub"]++
	mu.Unlock()
	_, _ = c.Do(req)
}

// goodEarlyReturn unlocks on every path before the delivery; the
// branch merge must notice the if-body both unlocks and returns.
func goodEarlyReturn(conn net.Conn, frame []byte, mu *sync.Mutex, down bool) {
	mu.Lock()
	if down {
		mu.Unlock()
		return
	}
	mu.Unlock()
	_, _ = conn.Write(frame)
}

// goodBothBranchesUnlock releases the lock in whichever branch runs.
func goodBothBranchesUnlock(events chan<- string, mu *sync.Mutex, fast bool) {
	mu.Lock()
	if fast {
		mu.Unlock()
	} else {
		mu.Unlock()
	}
	events <- "ok"
}
