package obs

import (
	"math"
	"testing"
	"time"
)

// fixtureHist is an unregistered latency histogram, for registering
// into a fixtures registry.
func fixtureHist(name, help string) *Histogram {
	h := NewLocalHistogram(latencyBuckets)
	h.desc = desc{name, "", help, "histogram"}
	return h
}

func TestSnapshotQuantile(t *testing.T) {
	Enable()
	defer Disable()
	h := NewLocalHistogram([]float64{0.001, 0.01, 0.1, 1})
	// 90 observations in (0.001, 0.01], 10 in (0.01, 0.1].
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if p50 := s.Quantile(0.5); p50 <= 0.001 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want in (0.001, 0.01]", p50)
	}
	if p99 := s.Quantile(0.99); p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("p99 = %v, want in (0.01, 0.1]", p99)
	}
	// The +Inf bucket resolves to the highest finite bound.
	h.Observe(30 * time.Second)
	if q := h.Snapshot().Quantile(1); q != 1 {
		t.Fatalf("max quantile = %v, want top bound 1", q)
	}
}

// TestQuantileNoFiniteBounds: a histogram with only the +Inf bucket
// whose Count exceeds its bucket total (an inconsistent peer) must not
// index Bounds[-1]; with no finite bound to report, the estimate is 0.
func TestQuantileNoFiniteBounds(t *testing.T) {
	s := HistogramSnapshot{Counts: []int64{1}, Count: 5}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("Quantile = %v, want 0", q)
	}
}

func TestSnapshotDelta(t *testing.T) {
	Enable()
	defer Disable()
	h := NewLocalHistogram([]float64{0.01, 0.1})
	h.Observe(time.Millisecond)
	before := h.Snapshot()
	h.Observe(50 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	d := h.Snapshot().Delta(before)
	if d.Count != 2 {
		t.Fatalf("delta Count = %d, want 2", d.Count)
	}
	if q := d.Quantile(0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("delta p50 = %v, want in (0.01, 0.1]", q)
	}
}

// TestObserveValueOverflowSaturates is the regression test for the
// fixed-point sum overflow: a sum past int64 range must pin at
// MaxInt64 instead of wrapping negative. It keeps the name of the
// value entry point it first pinned; Observe shares the saturating sum.
func TestObserveValueOverflowSaturates(t *testing.T) {
	Enable()
	defer Disable()
	h := NewLocalHistogram([]float64{1, 10, 100})
	huge := time.Duration(math.MaxInt64/2 + 1)
	h.Observe(huge)
	h.Observe(huge) // the unsaturated sum wraps negative here
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Sum < 0 {
		t.Fatalf("Sum = %v, went negative (fixed-point overflow)", s.Sum)
	}
	// A further observation must not wrap the pinned sum.
	h.Observe(huge)
	if s := h.Snapshot(); s.Sum < 0 || s.Count != 3 {
		t.Fatalf("after third observation Sum = %v Count = %d, want non-negative/3", s.Sum, s.Count)
	}
	if max := h.Snapshot().Sum; max > float64(math.MaxInt64)/1e9*1.01 {
		t.Fatalf("Sum = %v exceeds the saturation ceiling", max)
	}
}

// TestNegativeObservationsDropped pins the guard on Observe: a
// negative duration must not land in bucket 0 and must not walk the
// sum backwards.
func TestNegativeObservationsDropped(t *testing.T) {
	Enable()
	defer Disable()
	h := NewLocalHistogram([]float64{1, 10})
	h.Observe(-time.Second)
	h.Observe(time.Duration(math.MinInt64))
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("negative observations recorded: Count=%d Sum=%v", s.Count, s.Sum)
	}
}

func TestRegistryValues(t *testing.T) {
	Enable()
	defer Disable()
	r := &Registry{}
	c := &Counter{desc: desc{name: "test_total", labels: `k="v"`}}
	g := &Gauge{desc: desc{name: "test_level"}}
	r.register(c)
	r.register(g)
	c.Add(3)
	g.Set(7)
	vals := r.Values()
	if vals[`test_total{k="v"}`] != 3 {
		t.Fatalf("counter value = %d, want 3", vals[`test_total{k="v"}`])
	}
	if vals["test_level"] != 7 {
		t.Fatalf("gauge value = %d, want 7", vals["test_level"])
	}
}

func TestStagesCoversAllSix(t *testing.T) {
	st := Stages()
	for _, name := range []string{"dispatch", "verify", "handler", "storage", "serialize", "deliver"} {
		if st[name] == nil {
			t.Fatalf("Stages() missing %q", name)
		}
	}
	if len(st) != 6 {
		t.Fatalf("Stages() has %d entries, want 6", len(st))
	}
}
