package obs

import (
	"math"
	"runtime/metrics"
)

// Go runtime health under the ogsa_runtime_* family, read through
// runtime/metrics and sampled lazily: nothing is collected between
// scrapes, so registering these costs the steady state exactly zero.
// The gauges answer "is the fleet leaking goroutines/heap", the GC
// pause histogram answers "are collection pauses eating into the
// latency SLO" — both per instance and, through /federate, fleet-wide.

// runtimeReading reads one runtime/metrics sample at scrape time, for
// a GaugeFunc. A metric unknown to this runtime reads NaN, which the
// GaugeFunc exposes as nothing.
func runtimeReading(sample string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: sample}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return math.NaN()
	}
}

// gcPauseBounds are the fixed bounds the runtime's GC pause histogram
// is re-bucketed into: runtime/metrics uses hundreds of fine-grained
// buckets that differ across Go versions, while federation needs
// stable, bucket-aligned bounds. Pauses span ~10µs (healthy) to the
// multi-ms territory a latency SLO cares about.
var gcPauseBounds = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// runtimeHist exposes a runtime/metrics Float64Histogram re-bucketed
// onto fixed bounds, sampled at scrape time.
type runtimeHist struct {
	desc
	sample string
	bounds []float64
}

func newRuntimeHist(name, help, sample string, bounds []float64) *runtimeHist {
	h := &runtimeHist{desc: desc{name, "", help, "histogram"}, sample: sample, bounds: bounds}
	Default.register(h)
	return h
}

func (h *runtimeHist) series() *Series {
	s := []metrics.Sample{{Name: h.sample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	rh := s[0].Value.Float64Histogram()
	snap := &HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.bounds)+1)}
	for i, c := range rh.Counts {
		if c == 0 {
			continue
		}
		// Runtime bucket i covers [Buckets[i], Buckets[i+1]); place its
		// whole count in the first fixed bucket that contains its upper
		// edge, and estimate the sum from the bucket midpoint (clamping
		// the ±Inf edges to their finite neighbor).
		lo, hi := rh.Buckets[i], rh.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		j := 0
		for j < len(h.bounds) && h.bounds[j] < hi {
			j++
		}
		snap.Counts[j] += int64(c)
		snap.Sum += ((lo + hi) / 2) * float64(c)
		snap.Count += int64(c)
	}
	return &Series{Hist: snap}
}

var (
	_ = NewGaugeFunc("ogsa_runtime_goroutines", "",
		"live goroutines (runtime/metrics, sampled at scrape)",
		runtimeReading("/sched/goroutines:goroutines"))
	_ = NewGaugeFunc("ogsa_runtime_heap_inuse_bytes", "",
		"bytes of heap occupied by live objects plus unswept spans",
		runtimeReading("/memory/classes/heap/objects:bytes"))
	_ = newRuntimeHist("ogsa_runtime_gc_pause_seconds",
		"stop-the-world GC pause durations, re-bucketed from runtime/metrics",
		"/gc/pauses:seconds", gcPauseBounds)
)
