package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// desc is what every metric kind shares: the family name, the baked
// label set ("" or `k="v",k2="v2"`), help text, and exposition type.
type desc struct{ name, labels, help, typ string }

func (d *desc) describe() *desc { return d }

// A metric is anything the registry can snapshot. The concrete kinds
// (Counter, Gauge, GaugeFunc, Histogram, and the runtime GC-pause
// histogram) cover what the container needs; the paper's figures are
// latency distributions and operation counts, nothing fancier.
type metric interface {
	describe() *desc
	// series reads the metric's current value; nil exposes nothing.
	series() *Series
}

// Registry holds registered metrics and snapshots them. Registration
// happens at package init (metrics are package vars in the
// instrumented layers), so the hot path never touches the registry
// lock — only scrapes do.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	seen    map[string]bool
}

// Default is the process-wide registry every NewCounter / NewGauge /
// NewHistogram registers into and the admin endpoint serves.
var Default = &Registry{}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := m.describe()
	key := d.name + "{" + d.labels + "}"
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[key] {
		panic(fmt.Sprintf("obs: duplicate metric %s", key))
	}
	r.seen[key] = true
	r.metrics = append(r.metrics, m)
}

// Snapshot reads every registered metric into an Exposition: families
// in name order, label sets in registration order within a family.
// It is the registry's one output — /metrics renders it as text,
// /metrics.json serves it to peers, and Values reads it.
func (r *Registry) Snapshot() *Exposition {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].describe().name < ms[j].describe().name })
	exp := &Exposition{}
	var f *Family
	for _, m := range ms {
		d := m.describe()
		if f == nil || f.Name != d.name {
			f = &Family{Name: d.name, Help: d.help, Type: d.typ}
			exp.Families = append(exp.Families, f)
		}
		if s := m.series(); s != nil {
			f.Series = append(f.Series, s)
		}
	}
	return exp
}

// WritePrometheus renders the registry in Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().Render(w)
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double-quote, and newline become \\,
// \", and \n. Anything else passes through. Label values reaching the
// exposition unescaped corrupt the whole scrape — a subscriber URL
// with a quote in it must not be able to break /metrics.
func EscapeLabelValue(v string) string {
	// Fast path: nothing to escape (the overwhelmingly common case for
	// the baked label sets this package uses).
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Label renders one k="v" exposition label pair with the value
// escaped. Use it (not string concatenation) whenever a label value
// comes from data rather than a literal.
func Label(k, v string) string {
	return k + `="` + EscapeLabelValue(v) + `"`
}

// Counter is a monotonically increasing atomic counter. Add and Inc
// are no-ops while the layer is disabled, so mirroring an existing
// subsystem counter into the registry costs one atomic bool load at
// the increment site.
type Counter struct {
	desc
	v atomic.Int64
}

// NewCounter registers a counter in the Default registry. labels is a
// baked Prometheus label set (`op="create"`) or "".
func NewCounter(name, labels, help string) *Counter {
	c := &Counter{desc: desc{name, labels, help, "counter"}}
	Default.register(c)
	return c
}

// Inc adds one when instrumentation is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n when instrumentation is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) series() *Series { return &Series{Labels: c.labels, Value: float64(c.v.Load())} }

// Gauge is a settable level (in-flight work, pool sizes).
type Gauge struct {
	desc
	v atomic.Int64
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, labels, help string) *Gauge {
	g := &Gauge{desc: desc{name, labels, help, "gauge"}}
	Default.register(g)
	return g
}

// Add moves the gauge by n (negative to decrease) when enabled.
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// Set pins the gauge to n when enabled.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) series() *Series { return &Series{Labels: g.labels, Value: float64(g.v.Load())} }

// GaugeFunc is a gauge evaluated at scrape time (uptime, Go runtime
// readings) — it costs nothing between scrapes. A non-finite reading
// exposes nothing: the JSON snapshot peers exchange cannot carry NaN
// or ±Inf.
type GaugeFunc struct {
	desc
	fn func() float64
}

// NewGaugeFunc registers a collected-at-scrape gauge.
func NewGaugeFunc(name, labels, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{desc: desc{name, labels, help, "gauge"}, fn: fn}
	Default.register(g)
	return g
}

func (g *GaugeFunc) series() *Series {
	v := g.fn()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &Series{Labels: g.labels, Value: v}
}

// latencyBuckets are the fixed histogram bounds, in seconds. They span
// the shapes the paper measures: parse/serialize in the tens of
// microseconds, database ops around the modeled Xindice floor
// (1–6 ms), signed round trips and notification fan-outs up to
// seconds.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// lock-free (one atomic add per bucket touched plus sum and count) and
// skipped entirely while disabled.
type Histogram struct {
	desc
	bounds   []float64
	buckets  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumNanos atomic.Int64
	count    atomic.Int64
	// exemplars holds, per bucket, the most recent span-linked
	// observation (see exemplar.go); written only by ObserveSinceSpan
	// and friends, so plain Observe paths never touch it.
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram registers a latency histogram with the standard bucket
// bounds.
func NewHistogram(name, labels, help string) *Histogram {
	h := NewLocalHistogram(latencyBuckets)
	h.desc = desc{name, labels, help, "histogram"}
	Default.register(h)
	return h
}

// NewLocalHistogram builds a histogram over the caller's bucket bounds
// (ascending, in seconds) that no registry exposes: harness code that
// reads its own percentiles back through Snapshot and Quantile, with
// bounds finer than /metrics carries.
func NewLocalHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one duration when enabled. Negative durations
// (clock steps, subtraction bugs upstream) are dropped rather than
// recorded: a negative sample would land in the first bucket and
// walk _sum backwards, poisoning every later quantile read.
func (h *Histogram) Observe(d time.Duration) {
	if !enabled.Load() || d < 0 {
		return
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, sec)
	h.buckets[i].Add(1)
	satAdd(&h.sumNanos, d.Nanoseconds())
	h.count.Add(1)
}

// satAdd adds n (>= 0) to a, pinning at MaxInt64 instead of wrapping.
func satAdd(a *atomic.Int64, n int64) {
	for {
		cur := a.Load()
		next := cur + n
		if next < cur {
			next = math.MaxInt64
		}
		if a.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ObserveSince records the time elapsed since t0 as returned by
// Start(). A zero t0 (instrumentation was disabled at region entry) is
// a no-op, so enable/disable races at worst lose one sample.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) series() *Series {
	snap := h.Snapshot()
	return &Series{Labels: h.labels, Hist: &snap}
}

// The six per-stage latency histograms of the container pipeline —
// the live reproduction of the paper's Fig 2/3 breakdown. Every layer
// observes into its own stage; one family, one label per stage.
var (
	StageDispatch  = newStage("dispatch", "whole inbound request: read, parse, dispatch, respond")
	StageVerify    = newStage("verify", "WS-Security verification of the request")
	StageHandler   = newStage("handler", "service action execution")
	StageStorage   = newStage("storage", "one xmldb operation (modeled Xindice latency included)")
	StageSerialize = newStage("serialize", "response envelope serialization")
	StageDeliver   = newStage("deliver", "one notification/event delivery, retries included")
)

func newStage(stage, help string) *Histogram {
	return NewHistogram("ogsa_stage_duration_seconds", Label("stage", stage), help)
}

var processStart = time.Now()

// Process uptime, collected at scrape time; Go runtime health is the
// ogsa_runtime_* set in runtime.go.
var _ = NewGaugeFunc("ogsa_uptime_seconds", "", "seconds since process start",
	func() float64 { return time.Since(processStart).Seconds() })
