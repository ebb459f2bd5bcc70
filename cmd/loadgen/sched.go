package main

import (
	"math/rand/v2"
	"time"
)

// The scheduler is open loop: arrivals are planned on a fixed-rate
// clock that does not wait for responses, and each operation's latency
// is measured from its *scheduled* arrival, not from when a worker got
// around to dispatching it. That is the coordinated-omission fix — a
// closed-loop harness silently excludes the queueing delay its own
// stalled client introduced, which is exactly the delay a saturated
// service inflicts on real open-world traffic.

// loadOp is one operation in a mix: a name for reporting, a draw
// weight, the operation itself, and its latency recorder (see newOp).
type loadOp struct {
	name   string
	weight int
	run    func() error
	rec    *recorder
}

// runResult summarizes one open-loop run.
type runResult struct {
	// Scheduled is how many arrivals the clock planned.
	Scheduled int64
	// Completed is how many operations finished (success or error).
	Completed int64
	// Elapsed is the wall time from first scheduled arrival to last
	// completion.
	Elapsed time.Duration
}

// queuedJob carries an operation and its scheduled arrival time to a
// worker.
type queuedJob struct {
	op  *loadOp
	due time.Time
}

// runOpenLoop drives the ops at `rate` arrivals per second for `dur`,
// with `workers` concurrent executors. Arrivals that find the dispatch
// queue full are shed (counted, not measured): an unbounded queue
// would hide overload as ever-growing latency until the process died.
func runOpenLoop(ops []*loadOp, rate float64, dur time.Duration, workers int, seed uint64) runResult {
	if workers < 1 {
		workers = 1
	}
	queue := make(chan queuedJob, 4*workers+1024)
	done := make(chan struct{})
	completed := make([]int64, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for j := range queue {
				err := j.op.run()
				if err != nil {
					j.op.rec.errs.Add(1)
				} else {
					// Latency from the scheduled arrival: queue wait included.
					j.op.rec.record(time.Since(j.due))
				}
				completed[w]++
			}
			done <- struct{}{}
		}(w)
	}

	// Weighted draw table. The rng lives on the scheduler goroutine
	// only, so the draw sequence is reproducible from the seed.
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	totalWeight := 0
	for _, op := range ops {
		totalWeight += op.weight
	}
	pick := func() *loadOp {
		r := rng.IntN(totalWeight)
		for _, op := range ops {
			if r < op.weight {
				return op
			}
			r -= op.weight
		}
		return ops[len(ops)-1]
	}

	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	end := start.Add(dur)
	var scheduled int64
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.After(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		op := pick()
		scheduled++
		select {
		case queue <- queuedJob{op: op, due: due}:
		default:
			op.rec.shed.Add(1)
		}
	}
	close(queue)
	for w := 0; w < workers; w++ {
		<-done
	}
	res := runResult{Scheduled: scheduled, Elapsed: time.Since(start)}
	for _, c := range completed {
		res.Completed += c
	}
	return res
}
