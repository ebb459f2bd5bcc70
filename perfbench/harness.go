package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A caller is one closed loop over a deployment: drive calls step back
// to back, timing each call, and a step returns only once its
// operation is complete and its result checked. t0 is the operation's
// start as drive recorded it; callers that time deliveries measure
// them from t0.
type caller interface {
	step(t0 time.Time, smp *samples) error
}

// samples collects the latencies a caller reports beyond its own
// operation time: one list per figure cell (a Fig. 2 or Fig. 6
// operation) and one of delivery latencies, all in milliseconds.
type samples struct {
	mu       sync.Mutex
	cells    map[string][]float64
	delivery []float64
}

func newSamples() *samples { return &samples{cells: map[string][]float64{}} }

func (s *samples) cell(name string, d time.Duration) {
	s.mu.Lock()
	s.cells[name] = append(s.cells[name], ms(d))
	s.mu.Unlock()
}

func (s *samples) delivered(d time.Duration) {
	s.mu.Lock()
	s.delivery = append(s.delivery, ms(d))
	s.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is the outcome of driving a set of callers for a while.
type window struct {
	ok, failed int
	firstErr   error
	wall       time.Duration
	// lat holds the latency of every verified operation, in ms.
	lat []float64
	smp *samples
	// cpu is process user+system time spent during the window.
	cpu time.Duration
	// heapPeak is the largest heap-object footprint sampled.
	heapPeak uint64
	rt       runtimeDelta
}

func (w window) attempted() int { return w.ok + w.failed }

func (w window) opsPerSec() float64 { return float64(w.ok) / w.wall.Seconds() }

// drive runs every caller in its own goroutine, closed loop, until d
// has elapsed, and returns once each has finished its last operation.
// Each latency is kept exactly; nothing is bucketed.
func drive(callers []caller, d time.Duration) window {
	return loop(callers, func(start time.Time, _ int) bool { return time.Since(start) < d })
}

// driveOps is drive for a fixed amount of work: each caller runs n
// operations.
func driveOps(callers []caller, n int) window {
	return loop(callers, func(_ time.Time, done int) bool { return done < n })
}

// loop runs each caller until more, given the window's start and the
// caller's operations so far, returns false.
func loop(callers []caller, more func(start time.Time, done int) bool) window {
	runtime.GC()
	smp := newSamples()
	stopHeap := sampleHeap()
	cpu0 := cpuTime()
	rt0 := readRuntime()
	type tally struct {
		lat      []float64
		failed   int
		firstErr error
	}
	tallies := make([]tally, len(callers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range callers {
		wg.Add(1)
		go func(t *tally, s caller) {
			defer wg.Done()
			for more(start, len(t.lat)+t.failed) {
				t0 := time.Now()
				err := s.step(t0, smp)
				el := time.Since(t0)
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.lat = append(t.lat, ms(el))
			}
		}(&tallies[i], s)
	}
	wg.Wait()
	w := window{wall: time.Since(start), smp: smp}
	w.cpu = cpuTime() - cpu0
	w.rt = readRuntime().sub(rt0)
	w.heapPeak = stopHeap()
	for _, t := range tallies {
		w.lat = append(w.lat, t.lat...)
		w.ok += len(t.lat)
		w.failed += t.failed
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
	}
	return w
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty list). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap polls the live heap-object footprint every 2 ms until the
// returned stop function is called, which reports the peak.
func sampleHeap() (stop func() uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-done:
				read()
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		return peak
	}
}

// runtimeDelta is the allocation and GC work done during a window.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles}
}

// noopCaller is the harness probe: an operation that does nothing, so
// its cycle time is drive's own cost per operation.
type noopCaller struct{}

func (noopCaller) step(time.Time, *samples) error { return nil }
