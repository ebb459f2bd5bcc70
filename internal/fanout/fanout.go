// Package fanout is the delivery machinery shared by the two stacks'
// notification dispatch paths (wsn.Producer.Notify and
// wse.Source.Publish): a bounded worker pool (Do), a batching
// Coalescer, and the Engine that runs retry, the per-subscription
// health ledger, eviction, and the delivery counters over them. Both
// stacks deliver one message to N matched subscribers; delivery is
// network I/O, so overlapping the deliveries — rather than paying N
// sequential round trips — is what makes large fan-outs scale (the
// messaging-layer throughput the DIRAC and EU DataGrid writeups
// identify as the lifeline of grid middleware). What differs between
// the stacks is the wire protocol, which stays in each stack.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"

	"altstacks/internal/obs"
)

// Pool metrics: total tasks executed and the current number of
// in-flight fan-out batches (a live saturation signal on /metrics).
var (
	tasksTotal = obs.NewCounter("ogsa_fanout_tasks_total", "",
		"tasks executed by fan-out worker pools")
	inflight = obs.NewGauge("ogsa_fanout_inflight", "",
		"fan-out batches currently executing")
)

// Do runs fn(i) for every i in [0, n) on a pool of at most width
// workers and returns when all calls have finished. A width of 0 (or
// less) selects GOMAXPROCS. Work is handed out by an atomic cursor, so
// a slow item never blocks an idle worker, and each index runs exactly
// once. With width 1 (or n 1) the calls run sequentially on the
// caller's goroutine — the zero-overhead degenerate case the figure
// benchmarks keep by default.
func Do(n, width int, fn func(int)) {
	if n <= 0 {
		return
	}
	tasksTotal.Add(int64(n))
	inflight.Add(1)
	defer inflight.Add(-1)
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width > n {
		width = n
	}
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}
