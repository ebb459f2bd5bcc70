package main

import (
	"sync/atomic"
	"time"

	"altstacks/internal/obs"
)

// latencyBounds are the recorder's histogram bounds in seconds: 16
// linear steps per power of two from 2^10 ns (~1 µs) to 2^38 ns
// (~275 s), the log-linear layout of an HdrHistogram. A bucket spans
// at most 1/16 of its lower bound, and a quantile is interpolated
// inside its bucket, so p50/p99/p999 carry that relative error at
// every magnitude the operations span.
var latencyBounds = func() []float64 {
	b := []float64{1024e-9}
	for g := 10; g < 38; g++ {
		for sub := 17; sub <= 32; sub++ {
			b = append(b, float64(int64(sub)<<g>>4)/1e9)
		}
	}
	return b
}()

// recorder accumulates one operation's latency distribution plus its
// error and shed counts. All fields are safe for concurrent use, and
// recording never takes a lock, so it does not perturb the load it
// measures.
type recorder struct {
	hist *obs.Histogram
	// errs counts operations that returned an error (their latency is
	// not recorded: a fast failure would flatter the distribution).
	errs atomic.Int64
	// shed counts arrivals dropped because the dispatch queue was full —
	// the open-loop overload signal.
	shed  atomic.Int64
	maxNs atomic.Int64
}

// newOp builds a load operation with an empty recorder.
func newOp(name string, weight int, run func() error) *loadOp {
	return &loadOp{name: name, weight: weight, run: run,
		rec: &recorder{hist: obs.NewLocalHistogram(latencyBounds)}}
}

// record files one successful operation's latency.
func (r *recorder) record(d time.Duration) {
	r.hist.Observe(d)
	ns := int64(d)
	for {
		cur := r.maxNs.Load()
		if ns <= cur || r.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile reports the q-quantile in nanoseconds (0 on an empty
// recorder), clamped to the largest latency recorded: interpolation can
// land past every value actually in the bucket.
func (r *recorder) quantile(q float64) int64 {
	ns := int64(r.hist.Snapshot().Quantile(q) * 1e9)
	return min(ns, r.maxNs.Load())
}
